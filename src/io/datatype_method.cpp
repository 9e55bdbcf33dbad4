// Datatype I/O (§3): the paper's contribution. The memory datatype is
// processed locally (pack/unpack through the dataloop engine); the file
// datatype is converted to a dataloop, serialised, and shipped to the I/O
// servers, which expand it themselves. One file-system operation per MPI-IO
// call, no offset-length list on the wire.
#include <vector>

#include "io/methods.h"

namespace dtio::io {

namespace {

/// Cost to build a dataloop from an MPI datatype (per datatype node,
/// charged on every MPI-IO call; the paper notes this makes datatype I/O
/// locally slightly more expensive than list I/O, §3.2).
constexpr SimTime kDataloopBuildCostPerNode = 3 * kMicrosecond;

sim::Task<Status> datatype_rw(Context& ctx, bool is_write,
                              std::uint64_t handle, const FileView& view,
                              std::int64_t offset, const void* wbuf,
                              void* rbuf, std::int64_t count,
                              const types::Datatype& memtype) {
  const std::int64_t total = count * memtype.size();
  ctx.client.stats().desired_bytes += static_cast<std::uint64_t>(total);
  if (total == 0) co_return Status::ok();
  const obs::SpanId span = detail::begin_method_span(
      ctx, is_write ? "datatype_write" : "datatype_read", total);
  const StreamWindow window = make_window(view, offset, total);

  // The MPI datatypes are converted to dataloops at every operation
  // (paper §3.2: "slightly higher overhead in the local portion").
  const std::int64_t build_nodes = memtype.dataloop()->node_count() +
                                   view.filetype.dataloop()->node_count();
  co_await ctx.sched.delay(kDataloopBuildCostPerNode *
                           build_nodes);

  const bool transfer = ctx.client.transfer_data();
  const bool mem_contig = memtype.is_contiguous();

  std::vector<std::uint8_t> stream_store;
  if (is_write) {
    const std::uint8_t* stream = nullptr;
    if (transfer && wbuf != nullptr) {
      if (mem_contig) {
        stream = static_cast<const std::uint8_t*>(wbuf);
      } else {
        stream_store.resize(static_cast<std::size_t>(total));
        detail::pack_memory(memtype, count, wbuf, stream_store);
        stream = stream_store.data();
      }
    }
    if (!mem_contig) {
      co_await detail::charge_mem_staging(
          ctx, memtype, count, total,
          ctx.config.client.dataloop_cost_per_region);
    }
    Status wstatus = co_await ctx.client.write_datatype(
        handle, view.filetype.dataloop(), view.displacement, window.instances,
        window.offset, window.length, stream);
    detail::count_method_units(ctx, "io_datatype_ops_total", 1);
    detail::end_method_span(ctx, span);
    co_return wstatus;
  }

  std::uint8_t* stream = nullptr;
  if (transfer && rbuf != nullptr) {
    if (mem_contig) {
      stream = static_cast<std::uint8_t*>(rbuf);
    } else {
      stream_store.resize(static_cast<std::size_t>(total));
      stream = stream_store.data();
    }
  }
  Status status = co_await ctx.client.read_datatype(
      handle, view.filetype.dataloop(), view.displacement, window.instances,
      window.offset, window.length, stream);
  detail::count_method_units(ctx, "io_datatype_ops_total", 1);
  if (!status.is_ok()) {
    detail::end_method_span(ctx, span);
    co_return status;
  }
  if (!mem_contig) {
    if (stream != nullptr) {
      detail::unpack_memory(memtype, count, rbuf, stream_store);
    }
    co_await detail::charge_mem_staging(
        ctx, memtype, count, total, ctx.config.client.dataloop_cost_per_region);
  }
  detail::end_method_span(ctx, span);
  co_return Status::ok();
}

}  // namespace

sim::Task<Status> datatype_write(Context& ctx, std::uint64_t handle,
                                 const FileView& view, std::int64_t offset,
                                 const void* buf, std::int64_t count,
                                 const types::Datatype& memtype) {
  return datatype_rw(ctx, true, handle, view, offset, buf, nullptr, count,
                     memtype);
}

sim::Task<Status> datatype_read(Context& ctx, std::uint64_t handle,
                                const FileView& view, std::int64_t offset,
                                void* buf, std::int64_t count,
                                const types::Datatype& memtype) {
  return datatype_rw(ctx, false, handle, view, offset, nullptr, buf, count,
                     memtype);
}

}  // namespace dtio::io
