// POSIX I/O: the naive baseline. Each piece that is contiguous in both
// memory and file becomes one contiguous file-system operation — the
// paper's Figure 1 access pattern costs five calls; its FLASH checkpoint
// costs 983 040 per client.
#include <limits>

#include "io/joint.h"
#include "io/methods.h"

namespace dtio::io {

namespace {

sim::Task<Status> posix_rw(Context& ctx, bool is_write, std::uint64_t handle,
                           const FileView& view, std::int64_t offset,
                           const void* wbuf, void* rbuf, std::int64_t count,
                           const types::Datatype& memtype) {
  const std::int64_t total = count * memtype.size();
  ctx.client.stats().desired_bytes += static_cast<std::uint64_t>(total);
  const StreamWindow window = make_window(view, offset, total);
  const obs::SpanId span = detail::begin_method_span(
      ctx, is_write ? "posix_write" : "posix_read", total);

  JointWalker walker(make_mem_cursor(memtype, count),
                     make_file_cursor(view, window));
  JointWalker::Run run;
  std::int64_t pieces = 0;
  while (walker.next_run(std::numeric_limits<std::int64_t>::max(), run)) {
    for (std::int64_t i = 0; i < run.count; ++i) {
      const JointWalker::Piece piece = run.piece(i);
      ++pieces;
      Status status;
      if (is_write) {
        const auto* src =
            wbuf == nullptr
                ? nullptr
                : static_cast<const std::uint8_t*>(wbuf) + piece.mem_offset;
        status = co_await ctx.client.write_contig(handle, piece.file_offset,
                                                  src, piece.length);
      } else {
        auto* dst = rbuf == nullptr
                        ? nullptr
                        : static_cast<std::uint8_t*>(rbuf) + piece.mem_offset;
        status = co_await ctx.client.read_contig(handle, piece.file_offset,
                                                 dst, piece.length);
      }
      if (!status.is_ok()) {
        detail::count_method_units(ctx, "io_posix_pieces_total", pieces);
        detail::end_method_span(ctx, span);
        co_return status;
      }
    }
  }
  detail::count_method_units(ctx, "io_posix_pieces_total", pieces);
  detail::end_method_span(ctx, span);
  co_return Status::ok();
}

}  // namespace

sim::Task<Status> posix_write(Context& ctx, std::uint64_t handle,
                              const FileView& view, std::int64_t offset,
                              const void* buf, std::int64_t count,
                              const types::Datatype& memtype) {
  return posix_rw(ctx, true, handle, view, offset, buf, nullptr, count,
                  memtype);
}

sim::Task<Status> posix_read(Context& ctx, std::uint64_t handle,
                             const FileView& view, std::int64_t offset,
                             void* buf, std::int64_t count,
                             const types::Datatype& memtype) {
  return posix_rw(ctx, false, handle, view, offset, nullptr, buf, count,
                  memtype);
}

}  // namespace dtio::io
