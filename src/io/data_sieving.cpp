// Data sieving (§2.2): access a bounding window of the desired data with a
// few large contiguous operations and pick the wanted bytes out of (or
// into) a client-side buffer. Efficient when the desired regions are
// spatially dense; pathological when they are spread out (the 3-D block
// test reads 4x the desired data). Writes are read-modify-write and need
// a file lock, which PVFS does not offer — sieve_write reports
// kUnsupported under the default configuration exactly as ROMIO does on
// PVFS (§4.1), and performs locked RMW when the config models a locking
// file system.
#include <algorithm>
#include <cstring>
#include <vector>

#include "io/methods.h"

namespace dtio::io {

namespace {

struct SievePlan {
  std::vector<Region> file_regions;  ///< sorted, coalesced
  std::int64_t total = 0;            ///< desired bytes
  Region hull{0, 0};
};

SievePlan plan_access(const FileView& view, std::int64_t offset,
                      std::int64_t total) {
  SievePlan plan;
  plan.total = total;
  const StreamWindow window = make_window(view, offset, total);
  plan.file_regions = detail::flatten_file_side(view, window);
  plan.hull = bounding_hull(plan.file_regions);
  return plan;
}

/// Copy desired bytes between the sieve window buffer and the stream
/// buffer. `region_idx`/`region_done` persist across windows (regions are
/// sorted, windows ascend). Returns bytes moved in this window.
std::int64_t exchange_window(const SievePlan& plan, Region window,
                             std::uint8_t* window_buf, std::uint8_t* stream,
                             std::int64_t& stream_pos, std::size_t& region_idx,
                             std::int64_t& region_done, bool to_stream) {
  std::int64_t moved = 0;
  while (region_idx < plan.file_regions.size()) {
    const Region& r = plan.file_regions[region_idx];
    const std::int64_t begin = r.offset + region_done;
    if (begin >= window.end()) break;
    const std::int64_t len = std::min(r.end(), window.end()) - begin;
    if (window_buf != nullptr && stream != nullptr) {
      if (to_stream) {
        std::memcpy(stream + stream_pos, window_buf + (begin - window.offset),
                    static_cast<std::size_t>(len));
      } else {
        std::memcpy(window_buf + (begin - window.offset), stream + stream_pos,
                    static_cast<std::size_t>(len));
      }
    }
    stream_pos += len;
    region_done += len;
    moved += len;
    if (region_done == r.length) {
      ++region_idx;
      region_done = 0;
    }
  }
  return moved;
}

}  // namespace

sim::Task<Status> sieve_read(Context& ctx, std::uint64_t handle,
                             const FileView& view, std::int64_t offset,
                             void* buf, std::int64_t count,
                             const types::Datatype& memtype) {
  const std::int64_t total = count * memtype.size();
  ctx.client.stats().desired_bytes += static_cast<std::uint64_t>(total);
  if (total == 0) co_return Status::ok();
  const obs::SpanId span = detail::begin_method_span(ctx, "sieve_read", total);

  const SievePlan plan = plan_access(view, offset, total);
  co_await ctx.sched.delay(
      net::kFlattenCostPerRegion *
      static_cast<std::int64_t>(plan.file_regions.size()));

  const bool transfer = ctx.client.transfer_data() && buf != nullptr;
  const bool mem_contig = memtype.is_contiguous();
  std::vector<std::uint8_t> stream_store;
  std::uint8_t* stream = nullptr;
  if (transfer) {
    if (mem_contig) {
      stream = static_cast<std::uint8_t*>(buf);
    } else {
      stream_store.resize(static_cast<std::size_t>(total));
      stream = stream_store.data();
    }
  }

  const auto sieve = static_cast<std::int64_t>(ctx.config.sieve_buffer_size);
  std::vector<std::uint8_t> window_buf;
  if (transfer) {
    window_buf.resize(static_cast<std::size_t>(
        std::min(sieve, plan.hull.length)));
  }

  std::int64_t stream_pos = 0;
  std::size_t region_idx = 0;
  std::int64_t region_done = 0;
  std::int64_t windows = 0;
  for (std::int64_t wstart = plan.hull.offset; wstart < plan.hull.end();
       wstart += sieve) {
    ++windows;
    const std::int64_t wlen = std::min(sieve, plan.hull.end() - wstart);
    Status status = co_await ctx.client.read_contig(
        handle, wstart, transfer ? window_buf.data() : nullptr, wlen);
    if (!status.is_ok()) {
      detail::count_method_units(ctx, "io_sieve_windows_total", windows);
      detail::end_method_span(ctx, span);
      co_return status;
    }

    const std::int64_t moved = exchange_window(
        plan, Region{wstart, wlen}, transfer ? window_buf.data() : nullptr,
        stream, stream_pos, region_idx, region_done, /*to_stream=*/true);
    co_await ctx.sched.delay(
        transfer_time(static_cast<std::uint64_t>(moved),
                      net::kMemcpyBandwidthBytesPerS));
  }

  if (transfer && !mem_contig) {
    detail::unpack_memory(memtype, count, buf, stream_store);
  }
  if (!mem_contig) {
    co_await detail::charge_mem_staging(
        ctx, memtype, count, total, net::kFlattenCostPerRegion);
  }
  detail::count_method_units(ctx, "io_sieve_windows_total", windows);
  detail::end_method_span(ctx, span);
  co_return Status::ok();
}

sim::Task<Status> sieve_write(Context& ctx, std::uint64_t handle,
                              const FileView& view, std::int64_t offset,
                              const void* buf, std::int64_t count,
                              const types::Datatype& memtype) {
  if (!ctx.config.file_locking) {
    co_return unsupported(
        "data sieving writes need file locking; PVFS provides none");
  }
  const std::int64_t total = count * memtype.size();
  ctx.client.stats().desired_bytes += static_cast<std::uint64_t>(total);
  if (total == 0) co_return Status::ok();
  const obs::SpanId span = detail::begin_method_span(ctx, "sieve_write",
                                                     total);

  const SievePlan plan = plan_access(view, offset, total);
  co_await ctx.sched.delay(
      net::kFlattenCostPerRegion *
      static_cast<std::int64_t>(plan.file_regions.size()));

  const bool transfer = ctx.client.transfer_data() && buf != nullptr;
  const bool mem_contig = memtype.is_contiguous();
  std::vector<std::uint8_t> stream_store;
  const std::uint8_t* stream = nullptr;
  if (transfer) {
    if (mem_contig) {
      stream = static_cast<const std::uint8_t*>(buf);
    } else {
      stream_store.resize(static_cast<std::size_t>(total));
      detail::pack_memory(memtype, count, buf, stream_store);
      stream = stream_store.data();
    }
  }
  if (!mem_contig) {
    co_await detail::charge_mem_staging(
        ctx, memtype, count, total, net::kFlattenCostPerRegion);
  }

  const auto sieve = static_cast<std::int64_t>(ctx.config.sieve_buffer_size);
  std::vector<std::uint8_t> window_buf;
  if (transfer) {
    window_buf.resize(static_cast<std::size_t>(
        std::min(sieve, plan.hull.length)));
  }

  // Lock the modified range for the read-modify-write sequence: with
  // striped byte-range locks configured, only the hull's stripes are held
  // (disjoint sieves proceed in parallel); otherwise the legacy whole-file
  // lock — lock_range falls back to it by itself.
  (void)co_await ctx.client.lock_range(handle, plan.hull.offset,
                                       plan.hull.length);

  std::int64_t stream_pos = 0;
  std::size_t region_idx = 0;
  std::int64_t region_done = 0;
  std::int64_t windows = 0;
  Status status = Status::ok();
  for (std::int64_t wstart = plan.hull.offset; wstart < plan.hull.end();
       wstart += sieve) {
    ++windows;
    const std::int64_t wlen = std::min(sieve, plan.hull.end() - wstart);
    status = co_await ctx.client.read_contig(
        handle, wstart, transfer ? window_buf.data() : nullptr, wlen);
    if (!status.is_ok()) break;

    const std::int64_t moved = exchange_window(
        plan, Region{wstart, wlen}, transfer ? window_buf.data() : nullptr,
        const_cast<std::uint8_t*>(stream), stream_pos, region_idx, region_done,
        /*to_stream=*/false);
    co_await ctx.sched.delay(
        transfer_time(static_cast<std::uint64_t>(moved),
                      net::kMemcpyBandwidthBytesPerS));

    status = co_await ctx.client.write_contig(
        handle, wstart, transfer ? window_buf.data() : nullptr, wlen);
    if (!status.is_ok()) break;
  }

  (void)co_await ctx.client.unlock_range(handle, plan.hull.offset,
                                         plan.hull.length);
  detail::count_method_units(ctx, "io_sieve_windows_total", windows);
  detail::end_method_span(ctx, span);
  co_return status;
}

}  // namespace dtio::io
