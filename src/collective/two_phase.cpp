#include "collective/two_phase.h"

#include <algorithm>

#include "dataloop/dataloop.h"
#include <cstring>
#include <limits>
#include <vector>

namespace dtio::coll {

namespace {

/// Shared per-call geometry: this rank's flattened access and the global
/// file-domain partition computed from the allgathered extents.
struct Plan {
  std::vector<Region> regions;        ///< my file regions, sorted disjoint
  std::vector<std::int64_t> prefix;   ///< stream offset of each region
  std::int64_t total = 0;             ///< my bytes
  std::int64_t min_st = 0;            ///< global first byte
  std::int64_t max_end = 0;           ///< global last byte (exclusive)
  std::int64_t fd_len = 0;            ///< file-domain length per aggregator
  std::int64_t ntimes = 0;            ///< rounds (cb-buffer windows per fd)
  bool any_data = false;

  [[nodiscard]] Region window(int aggregator, std::int64_t round,
                              std::int64_t cb) const noexcept {
    const std::int64_t fd_start = min_st + aggregator * fd_len;
    const std::int64_t fd_end = std::min(fd_start + fd_len, max_end);
    const std::int64_t lo = fd_start + round * cb;
    const std::int64_t hi = std::min(lo + cb, fd_end);
    return hi > lo ? Region{lo, hi - lo} : Region{lo, 0};
  }
};

/// My pieces overlapping [lo, hi), with their stream offsets.
struct Clipped {
  std::vector<Region> file;
  std::vector<std::int64_t> stream_at;
  std::int64_t bytes = 0;
};

Clipped clip(const Plan& plan, std::int64_t lo, std::int64_t hi) {
  Clipped out;
  if (hi <= lo || plan.regions.empty()) return out;
  // Regions are sorted and disjoint, so their ends are sorted too: find
  // the first region ending after lo.
  auto it = std::lower_bound(
      plan.regions.begin(), plan.regions.end(), lo,
      [](const Region& r, std::int64_t v) { return r.end() <= v; });
  for (; it != plan.regions.end() && it->offset < hi; ++it) {
    const std::int64_t begin = std::max(it->offset, lo);
    const std::int64_t end = std::min(it->end(), hi);
    if (begin >= end) continue;
    const auto idx = static_cast<std::size_t>(it - plan.regions.begin());
    out.file.push_back(Region{begin, end - begin});
    out.stream_at.push_back(plan.prefix[idx] + (begin - it->offset));
    out.bytes += end - begin;
  }
  return out;
}

/// Flatten my access, exchange extents, and carve the file domains.
sim::Task<Plan> make_plan(io::Context& ctx, Communicator& comm, int rank,
                          const io::FileView& view, std::int64_t offset,
                          std::int64_t total) {
  Plan plan;
  plan.total = total;
  const io::StreamWindow window = io::make_window(view, offset, total);
  plan.regions = io::detail::flatten_file_side(view, window);
  plan.prefix.reserve(plan.regions.size());
  std::int64_t at = 0;
  for (const Region& r : plan.regions) {
    plan.prefix.push_back(at);
    at += r.length;
  }
  co_await ctx.sched.delay(net::kFlattenCostPerRegion *
                           static_cast<std::int64_t>(plan.regions.size()));

  constexpr std::int64_t kNone = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> mine{
      plan.regions.empty() ? kNone : plan.regions.front().offset,
      plan.regions.empty() ? -1 : plan.regions.back().end()};
  const std::vector<std::int64_t> all =
      co_await comm.allgather64(rank, Box<std::vector<std::int64_t>>(
                                          std::move(mine)));

  std::int64_t min_st = kNone;
  std::int64_t max_end = -1;
  for (std::size_t i = 0; i + 1 < all.size(); i += 2) {
    min_st = std::min(min_st, all[i]);
    max_end = std::max(max_end, all[i + 1]);
  }
  plan.any_data = max_end > 0 && min_st != kNone && max_end > min_st;
  if (plan.any_data) {
    plan.min_st = min_st;
    plan.max_end = max_end;
    const auto nag = static_cast<std::int64_t>(comm.size());
    plan.fd_len = (max_end - min_st + nag - 1) / nag;
    const auto cb = static_cast<std::int64_t>(ctx.config.cb_buffer_size);
    plan.ntimes = (plan.fd_len + cb - 1) / cb;
  }
  co_return plan;
}

std::uint64_t exchange_wire_bytes(const Clipped& pieces, bool with_data) {
  return pieces.file.size() * net::kListIoBytesPerRegion +
         (with_data ? static_cast<std::uint64_t>(pieces.bytes) : 0);
}

/// Aggregator-side view of one received contribution.
struct Contribution {
  Region region;
  const std::uint8_t* data;   ///< null in timing-only mode
  int src;
  std::int64_t src_stream_at;  ///< read: where the piece sits in src's data
};

}  // namespace

sim::Task<Status> two_phase_write(io::Context& ctx, Communicator& comm,
                                  int rank, std::uint64_t handle,
                                  const io::FileView& view,
                                  std::int64_t offset, const void* buf,
                                  std::int64_t count,
                                  const types::Datatype& memtype) {
  const std::int64_t total = count * memtype.size();
  ctx.client.stats().desired_bytes += static_cast<std::uint64_t>(total);
  const obs::SpanId tp_span =
      io::detail::begin_method_span(ctx, "two_phase_write", total);
  Plan plan = co_await make_plan(ctx, comm, rank, view, offset, total);
  if (!plan.any_data) {
    io::detail::end_method_span(ctx, tp_span);
    co_return Status::ok();
  }
  io::detail::count_method_units(ctx, "tp_rounds_total", plan.ntimes);

  const bool transfer = ctx.client.transfer_data() && buf != nullptr;
  const bool mem_contig = memtype.is_contiguous();

  // Stage my outgoing data as one contiguous stream.
  std::vector<std::uint8_t> stream_store;
  const std::uint8_t* stream = nullptr;
  if (transfer) {
    if (mem_contig) {
      stream = static_cast<const std::uint8_t*>(buf);
    } else {
      stream_store.resize(static_cast<std::size_t>(total));
      io::detail::pack_memory(memtype, count, buf, stream_store);
      stream = stream_store.data();
    }
  }
  if (!mem_contig) {
    co_await io::detail::charge_mem_staging(
        ctx, memtype, count, total, net::kFlattenCostPerRegion);
  }

  const auto cb = static_cast<std::int64_t>(ctx.config.cb_buffer_size);
  const std::uint64_t block = comm.reserve_block(rank);
  const int nag = comm.size();
  std::vector<std::uint8_t> cb_buf;

  for (std::int64_t r = 0; r < plan.ntimes; ++r) {
    const obs::SpanId round_span =
        io::detail::begin_child_span(ctx, "tp_round", tp_span, r);
    // ---- Phase 1: scatter my pieces to the round's aggregators.
    for (int a = 0; a < nag; ++a) {
      const Region win = plan.window(a, r, cb);
      Clipped pieces = clip(plan, win.offset, win.end());
      ExchangePayload payload;
      payload.regions = pieces.file;
      if (transfer && pieces.bytes > 0) {
        payload.data = std::make_shared<std::vector<std::uint8_t>>(
            static_cast<std::size_t>(pieces.bytes));
        std::size_t at = 0;
        for (std::size_t i = 0; i < pieces.file.size(); ++i) {
          const auto len = static_cast<std::size_t>(pieces.file[i].length);
          std::memcpy(payload.data->data() + at,
                      stream + pieces.stream_at[i], len);
          at += len;
        }
      }
      if (a != rank) {
        ctx.client.stats().resent_bytes +=
            static_cast<std::uint64_t>(pieces.bytes);
      }
      co_await comm.send_exchange(
          rank, a, block + static_cast<std::uint64_t>(r),
          Box<ExchangePayload>(std::move(payload)),
          exchange_wire_bytes(pieces, /*with_data=*/true));
    }

    // ---- Phase 2: as aggregator, merge contributions and write.
    std::vector<ExchangePayload> inbox;
    inbox.reserve(static_cast<std::size_t>(nag));
    for (int src = 0; src < nag; ++src) {
      inbox.push_back(co_await comm.recv_exchange(
          rank, src, block + static_cast<std::uint64_t>(r)));
    }

    std::vector<Contribution> contributions;
    std::int64_t received_bytes = 0;
    for (int src = 0; src < nag; ++src) {
      const ExchangePayload& p = inbox[static_cast<std::size_t>(src)];
      std::int64_t at = 0;
      for (const Region& piece : p.regions) {
        contributions.push_back(Contribution{
            piece, p.data ? p.data->data() + at : nullptr, src, 0});
        at += piece.length;
        received_bytes += piece.length;
      }
    }
    if (contributions.empty()) {
      io::detail::end_method_span(ctx, round_span);
      continue;
    }

    std::sort(contributions.begin(), contributions.end(),
              [](const Contribution& a, const Contribution& b) {
                return a.region.offset < b.region.offset;
              });
    const std::int64_t lo = contributions.front().region.offset;
    std::int64_t hi = lo;
    bool holes = false;
    for (const Contribution& c : contributions) {
      if (c.region.offset > hi) holes = true;
      hi = std::max(hi, c.region.end());
    }

    const net::CbWriteMode mode = ctx.config.cb_write_noncontig;
    if (holes && mode != net::CbWriteMode::kRmw) {
      // §5 extension: write ONLY the contributed regions through a
      // noncontiguous interface — no RMW read, no hole bytes touched.
      std::vector<Region> regions;
      regions.reserve(contributions.size());
      if (transfer) cb_buf.clear();
      for (const Contribution& c : contributions) {
        regions.push_back(c.region);
        if (transfer && c.data != nullptr) {
          cb_buf.insert(cb_buf.end(), c.data,
                        c.data + c.region.length);
        }
      }
      coalesce_adjacent(regions);  // stream order is preserved by merging
      co_await ctx.sched.delay(
          transfer_time(static_cast<std::uint64_t>(received_bytes),
                        net::kMemcpyBandwidthBytesPerS));
      Status status;
      if (mode == net::CbWriteMode::kList) {
        status = co_await ctx.client.write_list(
            handle, regions, transfer ? cb_buf.data() : nullptr);
      } else {
        std::vector<std::int64_t> lens, offs;
        lens.reserve(regions.size());
        offs.reserve(regions.size());
        for (const Region& reg : regions) {
          lens.push_back(reg.length);
          offs.push_back(reg.offset);
        }
        auto loop = dl::make_indexed(lens, offs, dl::make_leaf(1));
        status = co_await ctx.client.write_datatype(
            handle, loop, 0, 1, 0, loop->size,
            transfer ? cb_buf.data() : nullptr);
      }
      if (!status.is_ok()) {
        io::detail::end_method_span(ctx, round_span);
        io::detail::end_method_span(ctx, tp_span);
        co_return status;
      }
      io::detail::end_method_span(ctx, round_span);
      continue;
    }
    if (transfer) cb_buf.assign(static_cast<std::size_t>(hi - lo), 0);
    if (holes) {
      // Read-modify-write to preserve the bytes between contributions.
      Status status = co_await ctx.client.read_contig(
          handle, lo, transfer ? cb_buf.data() : nullptr, hi - lo);
      if (!status.is_ok()) {
        io::detail::end_method_span(ctx, round_span);
        io::detail::end_method_span(ctx, tp_span);
        co_return status;
      }
    }
    if (transfer) {
      for (const Contribution& c : contributions) {
        if (c.data == nullptr) continue;
        std::memcpy(cb_buf.data() + (c.region.offset - lo), c.data,
                    static_cast<std::size_t>(c.region.length));
      }
    }
    co_await ctx.sched.delay(
        transfer_time(static_cast<std::uint64_t>(received_bytes),
                      net::kMemcpyBandwidthBytesPerS));
    Status status = co_await ctx.client.write_contig(
        handle, lo, transfer ? cb_buf.data() : nullptr, hi - lo);
    io::detail::end_method_span(ctx, round_span);
    if (!status.is_ok()) {
      io::detail::end_method_span(ctx, tp_span);
      co_return status;
    }
  }
  io::detail::end_method_span(ctx, tp_span);
  co_return Status::ok();
}

sim::Task<Status> two_phase_read(io::Context& ctx, Communicator& comm,
                                 int rank, std::uint64_t handle,
                                 const io::FileView& view, std::int64_t offset,
                                 void* buf, std::int64_t count,
                                 const types::Datatype& memtype) {
  const std::int64_t total = count * memtype.size();
  ctx.client.stats().desired_bytes += static_cast<std::uint64_t>(total);
  const obs::SpanId tp_span =
      io::detail::begin_method_span(ctx, "two_phase_read", total);
  Plan plan = co_await make_plan(ctx, comm, rank, view, offset, total);
  if (!plan.any_data) {
    io::detail::end_method_span(ctx, tp_span);
    co_return Status::ok();
  }
  io::detail::count_method_units(ctx, "tp_rounds_total", plan.ntimes);

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

  const auto cb = static_cast<std::int64_t>(ctx.config.cb_buffer_size);
  const std::uint64_t block = comm.reserve_block(rank);
  const int nag = comm.size();
  std::vector<std::uint8_t> cb_buf;

  for (std::int64_t r = 0; r < plan.ntimes; ++r) {
    const obs::SpanId round_span =
        io::detail::begin_child_span(ctx, "tp_round", tp_span, r);
    const std::uint64_t req_tag = block + 2 * static_cast<std::uint64_t>(r);
    const std::uint64_t resp_tag = req_tag + 1;

    // ---- Phase 1: tell each aggregator which pieces I need this round.
    // Remember my requests so responses can be placed without recomputing.
    std::vector<Clipped> my_requests(static_cast<std::size_t>(nag));
    for (int a = 0; a < nag; ++a) {
      const Region win = plan.window(a, r, cb);
      Clipped pieces = clip(plan, win.offset, win.end());
      ExchangePayload payload;
      payload.regions = pieces.file;
      co_await comm.send_exchange(
          rank, a, req_tag, Box<ExchangePayload>(std::move(payload)),
          exchange_wire_bytes(pieces, /*with_data=*/false));
      my_requests[static_cast<std::size_t>(a)] = std::move(pieces);
    }

    // ---- Phase 2: as aggregator, read the hull once and serve everyone.
    std::vector<ExchangePayload> requests;
    requests.reserve(static_cast<std::size_t>(nag));
    for (int src = 0; src < nag; ++src) {
      requests.push_back(co_await comm.recv_exchange(rank, src, req_tag));
    }
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = -1;
    for (const ExchangePayload& p : requests) {
      for (const Region& piece : p.regions) {
        lo = std::min(lo, piece.offset);
        hi = std::max(hi, piece.end());
      }
    }
    if (hi > lo) {
      if (transfer) cb_buf.assign(static_cast<std::size_t>(hi - lo), 0);
      Status status = co_await ctx.client.read_contig(
          handle, lo, transfer ? cb_buf.data() : nullptr, hi - lo);
      if (!status.is_ok()) {
        io::detail::end_method_span(ctx, round_span);
        io::detail::end_method_span(ctx, tp_span);
        co_return status;
      }
    }
    std::int64_t served_bytes = 0;
    for (int src = 0; src < nag; ++src) {
      const ExchangePayload& req = requests[static_cast<std::size_t>(src)];
      ExchangePayload response;
      response.regions = req.regions;
      std::int64_t bytes = 0;
      for (const Region& piece : req.regions) bytes += piece.length;
      if (transfer && bytes > 0) {
        response.data = std::make_shared<std::vector<std::uint8_t>>(
            static_cast<std::size_t>(bytes));
        std::size_t at = 0;
        for (const Region& piece : req.regions) {
          std::memcpy(response.data->data() + at,
                      cb_buf.data() + (piece.offset - lo),
                      static_cast<std::size_t>(piece.length));
          at += static_cast<std::size_t>(piece.length);
        }
      }
      if (src != rank) {
        ctx.client.stats().resent_bytes += static_cast<std::uint64_t>(bytes);
      }
      served_bytes += bytes;
      Clipped sized;
      sized.file = response.regions;
      sized.bytes = bytes;
      co_await comm.send_exchange(
          rank, src, resp_tag, Box<ExchangePayload>(std::move(response)),
          exchange_wire_bytes(sized, /*with_data=*/true));
    }
    co_await ctx.sched.delay(
        transfer_time(static_cast<std::uint64_t>(served_bytes),
                      net::kMemcpyBandwidthBytesPerS));

    // ---- Phase 3: place the responses into my stream buffer.
    for (int a = 0; a < nag; ++a) {
      ExchangePayload response = co_await comm.recv_exchange(rank, a, resp_tag);
      const Clipped& want = my_requests[static_cast<std::size_t>(a)];
      if (stream != nullptr && response.data) {
        std::size_t at = 0;
        for (std::size_t i = 0; i < want.file.size(); ++i) {
          const auto len = static_cast<std::size_t>(want.file[i].length);
          std::memcpy(stream + want.stream_at[i], response.data->data() + at,
                      len);
          at += len;
        }
      }
    }
    io::detail::end_method_span(ctx, round_span);
  }

  if (transfer && !mem_contig) {
    io::detail::unpack_memory(memtype, count, buf, stream_store);
  }
  if (!mem_contig) {
    co_await io::detail::charge_mem_staging(
        ctx, memtype, count, total, net::kFlattenCostPerRegion);
  }
  io::detail::end_method_span(ctx, tp_span);
  co_return Status::ok();
}

}  // namespace dtio::coll
