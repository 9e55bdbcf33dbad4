# Runs BENCH with ARG and passes only on a clean usage error: exit status 2
# with a message on stderr that names FLAG. A crash or a normal run fails.
execute_process(COMMAND ${BENCH} ${ARG}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR
          "${BENCH} ${ARG}: expected exit status 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "${FLAG}")
  message(FATAL_ERROR "${BENCH} ${ARG}: stderr does not name ${FLAG}: ${err}")
endif()
