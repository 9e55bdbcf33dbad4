#include <limits>

#include "dataloop/pack.h"
#include "io/methods.h"

namespace dtio::io::detail {

sim::Task<std::int64_t> charge_mem_staging(Context& ctx,
                                           const types::Datatype& memtype,
                                           std::int64_t count,
                                           std::int64_t bytes,
                                           SimTime per_region_cost) {
  const std::int64_t regions =
      memtype.dataloop()->region_count() * count;
  co_await ctx.sched.delay(
      per_region_cost * regions +
      transfer_time(static_cast<std::uint64_t>(bytes),
                    net::kMemcpyBandwidthBytesPerS));
  co_return regions;
}

void pack_memory(const types::Datatype& memtype, std::int64_t count,
                 const void* buf, std::span<std::uint8_t> out) {
  if (buf == nullptr) return;
  dl::Cursor cursor = make_mem_cursor(memtype, count);
  dl::pack(static_cast<const std::uint8_t*>(buf), cursor, out);
}

void unpack_memory(const types::Datatype& memtype, std::int64_t count,
                   void* buf, std::span<const std::uint8_t> in) {
  if (buf == nullptr) return;
  dl::Cursor cursor = make_mem_cursor(memtype, count);
  dl::unpack(static_cast<std::uint8_t*>(buf), cursor, in);
}

std::vector<Region> flatten_file_side(const FileView& view,
                                      const StreamWindow& window) {
  dl::Cursor cursor = make_file_cursor(view, window);
  std::vector<Region> regions;
  cursor.process(std::numeric_limits<std::int64_t>::max(), window.length,
                 [&](std::int64_t off, std::int64_t len) {
                   regions.push_back(Region{off, len});
                 });
  return regions;
}

obs::SpanId begin_method_span(Context& ctx, std::string_view name,
                              std::int64_t bytes) {
  obs::Observability* obs = ctx.client.observability();
  if (obs == nullptr) return 0;
  const obs::SpanId span =
      obs->spans.begin(name, ctx.client.node_id(), ctx.sched.now(), 0,
                       obs->spans.new_trace());
  obs->spans.set_value(span, bytes);
  return span;
}

obs::SpanId begin_child_span(Context& ctx, std::string_view name,
                             obs::SpanId parent, std::int64_t value) {
  obs::Observability* obs = ctx.client.observability();
  if (obs == nullptr) return 0;
  const obs::Span* p = obs->spans.find(parent);
  const obs::SpanId span =
      obs->spans.begin(name, ctx.client.node_id(), ctx.sched.now(), parent,
                       p != nullptr ? p->trace : 0);
  if (value != 0) obs->spans.set_value(span, value);
  return span;
}

void end_method_span(Context& ctx, obs::SpanId span) {
  obs::Observability* obs = ctx.client.observability();
  if (obs == nullptr) return;
  obs->spans.end(span, ctx.sched.now());
}

void count_method_units(Context& ctx, std::string_view name, std::int64_t n) {
  obs::Observability* obs = ctx.client.observability();
  if (obs == nullptr || n <= 0) return;
  obs->metrics
      .counter(name, obs::label("node", ctx.client.node_id()))
      .add(static_cast<std::uint64_t>(n));
}

}  // namespace dtio::io::detail
