#include "dataloop/serialize.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace dtio::dl {
namespace {

// Wire format, little-endian, pre-order:
//   u8  kind
//   i64 count
//   per kind:
//     leaf:         i64 el_size
//     contig:       child
//     vector:       i64 blocklen, i64 stride, child
//     blockindexed: i64 blocklen, i64 offsets[count], child
//     indexed:      i64 blocklens[count], i64 offsets[count], child
//     struct:       i64 blocklens[count], i64 offsets[count], children[count]
//   i64 lb, i64 extent   (re-applied via make_resized: covers resized types)

// Decoded numbers are untrusted, and one flipped bit can make the
// builders' size/extent arithmetic overflow. So every decoded number and
// every derived field of a decoded node stays within kMaxMagnitude, and a
// node is built only once a conservative bound on its arithmetic (n child
// instances of magnitude m, displaced by up to `spread` bytes) fits too.
// The headroom below INT64_MAX covers the few such terms that any one
// builder expression adds up.
constexpr std::int64_t kMaxMagnitude = std::int64_t{1} << 60;

[[noreturn]] void out_of_range() {
  throw std::invalid_argument("dataloop decode: value out of range");
}

// Saturating arithmetic on magnitudes (non-negative operands).
std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  return __builtin_add_overflow(a, b, &r)
             ? std::numeric_limits<std::int64_t>::max()
             : r;
}
std::int64_t sat_mul(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  return __builtin_mul_overflow(a, b, &r)
             ? std::numeric_limits<std::int64_t>::max()
             : r;
}
std::int64_t mag(std::int64_t v) { return v < 0 ? -v : v; }

std::int64_t magnitude(const Dataloop& loop) {
  return std::max({mag(loop.count), mag(loop.size), mag(loop.extent),
                   mag(loop.lb), mag(loop.data_lb), mag(loop.data_ub),
                   mag(loop.regions)});
}

std::int64_t total(std::span<const std::int64_t> blocklens) {
  std::int64_t n = 0;
  for (const std::int64_t bl : blocklens) n = sat_add(n, mag(bl));
  return n;
}

std::int64_t reach(std::span<const std::int64_t> offsets) {
  std::int64_t r = 0;
  for (const std::int64_t off : offsets) r = std::max(r, mag(off));
  return r;
}

void require_fits(std::int64_t n, std::int64_t m, std::int64_t spread) {
  if (sat_add(sat_mul(sat_add(mag(n), 1), sat_add(m, 1)),
              sat_mul(2, spread)) > kMaxMagnitude) {
    out_of_range();
  }
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >>
                                            (8 * i)));
  }
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> in) : in_(in) {}

  std::uint8_t u8() {
    require(1);
    return in_[pos_++];
  }
  std::int64_t i64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(in_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    const auto value = static_cast<std::int64_t>(v);
    if (value < -kMaxMagnitude || value > kMaxMagnitude) out_of_range();
    return value;
  }
  std::vector<std::int64_t> i64_array(std::int64_t n) {
    if (n < 0 || n > static_cast<std::int64_t>((in_.size() - pos_) / 8)) {
      throw std::invalid_argument("dataloop decode: bad array length");
    }
    std::vector<std::int64_t> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) out.push_back(i64());
    return out;
  }
  [[nodiscard]] bool exhausted() const noexcept { return pos_ == in_.size(); }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > in_.size()) {
      throw std::invalid_argument("dataloop decode: truncated input");
    }
  }
  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
};

DataloopPtr decode_node(Reader& reader, int depth) {
  if (depth > 64) {
    throw std::invalid_argument("dataloop decode: nesting too deep");
  }
  const auto kind = static_cast<Kind>(reader.u8());
  const std::int64_t count = reader.i64();
  DataloopPtr loop;
  switch (kind) {
    case Kind::kLeaf: {
      const std::int64_t el_size = reader.i64();
      loop = make_leaf(el_size);
      break;
    }
    case Kind::kContig: {
      DataloopPtr child = decode_node(reader, depth + 1);
      require_fits(count, magnitude(*child), 0);
      loop = make_contig(count, std::move(child));
      break;
    }
    case Kind::kVector: {
      const std::int64_t blocklen = reader.i64();
      const std::int64_t stride = reader.i64();
      DataloopPtr child = decode_node(reader, depth + 1);
      require_fits(sat_mul(mag(count), mag(blocklen)), magnitude(*child),
                   sat_mul(mag(count), mag(stride)));
      loop = make_vector(count, blocklen, stride, std::move(child));
      break;
    }
    case Kind::kBlockIndexed: {
      const std::int64_t blocklen = reader.i64();
      const auto offsets = reader.i64_array(count);
      DataloopPtr child = decode_node(reader, depth + 1);
      require_fits(sat_mul(mag(count), mag(blocklen)), magnitude(*child),
                   reach(offsets));
      loop = make_blockindexed(count, blocklen, offsets, std::move(child));
      break;
    }
    case Kind::kIndexed: {
      const auto blocklens = reader.i64_array(count);
      const auto offsets = reader.i64_array(count);
      DataloopPtr child = decode_node(reader, depth + 1);
      require_fits(total(blocklens), magnitude(*child), reach(offsets));
      loop = make_indexed(blocklens, offsets, std::move(child));
      break;
    }
    case Kind::kStruct: {
      const auto blocklens = reader.i64_array(count);
      const auto offsets = reader.i64_array(count);
      std::vector<DataloopPtr> children;
      children.reserve(static_cast<std::size_t>(count));
      std::int64_t m = 0;
      for (std::int64_t i = 0; i < count; ++i) {
        children.push_back(decode_node(reader, depth + 1));
        m = std::max(m, magnitude(*children.back()));
      }
      require_fits(total(blocklens), m, reach(offsets));
      loop = make_struct(blocklens, offsets, children);
      break;
    }
    default:
      throw std::invalid_argument("dataloop decode: unknown kind");
  }
  const std::int64_t lb = reader.i64();
  const std::int64_t extent = reader.i64();
  loop = make_resized(std::move(loop), lb, extent);
  if (magnitude(*loop) > kMaxMagnitude) out_of_range();
  return loop;
}

}  // namespace

void encode(const Dataloop& loop, std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(loop.kind));
  put_i64(out, loop.count);
  switch (loop.kind) {
    case Kind::kLeaf:
      put_i64(out, loop.el_size);
      break;
    case Kind::kContig:
      encode(*loop.child, out);
      break;
    case Kind::kVector:
      put_i64(out, loop.blocklen);
      put_i64(out, loop.stride);
      encode(*loop.child, out);
      break;
    case Kind::kBlockIndexed:
      put_i64(out, loop.blocklen);
      for (const std::int64_t off : loop.offsets) put_i64(out, off);
      encode(*loop.child, out);
      break;
    case Kind::kIndexed:
      for (const std::int64_t bl : loop.blocklens) put_i64(out, bl);
      for (const std::int64_t off : loop.offsets) put_i64(out, off);
      encode(*loop.child, out);
      break;
    case Kind::kStruct:
      for (const std::int64_t bl : loop.blocklens) put_i64(out, bl);
      for (const std::int64_t off : loop.offsets) put_i64(out, off);
      for (const auto& c : loop.children) encode(*c, out);
      break;
  }
  put_i64(out, loop.lb);
  put_i64(out, loop.extent);
}

std::size_t encoded_size(const Dataloop& loop) {
  std::size_t n = 1 + 8 + 16;  // kind + count + lb/extent trailer
  switch (loop.kind) {
    case Kind::kLeaf:
      n += 8;
      break;
    case Kind::kContig:
      n += encoded_size(*loop.child);
      break;
    case Kind::kVector:
      n += 16 + encoded_size(*loop.child);
      break;
    case Kind::kBlockIndexed:
      n += 8 + loop.offsets.size() * 8 + encoded_size(*loop.child);
      break;
    case Kind::kIndexed:
      n += (loop.blocklens.size() + loop.offsets.size()) * 8 +
           encoded_size(*loop.child);
      break;
    case Kind::kStruct:
      n += (loop.blocklens.size() + loop.offsets.size()) * 8;
      for (const auto& c : loop.children) n += encoded_size(*c);
      break;
  }
  return n;
}

DataloopPtr decode(std::span<const std::uint8_t> in) {
  Reader reader(in);
  DataloopPtr loop = decode_node(reader, 0);
  if (!reader.exhausted()) {
    throw std::invalid_argument("dataloop decode: trailing bytes");
  }
  return loop;
}

bool deep_equal(const Dataloop& a, const Dataloop& b) noexcept {
  if (a.kind != b.kind || a.count != b.count || a.blocklen != b.blocklen ||
      a.stride != b.stride || a.el_size != b.el_size || a.size != b.size ||
      a.extent != b.extent || a.lb != b.lb || a.data_lb != b.data_lb ||
      a.data_ub != b.data_ub || a.regions != b.regions ||
      a.offsets != b.offsets || a.blocklens != b.blocklens) {
    return false;
  }
  if ((a.child == nullptr) != (b.child == nullptr)) return false;
  if (a.child && !deep_equal(*a.child, *b.child)) return false;
  if (a.children.size() != b.children.size()) return false;
  for (std::size_t i = 0; i < a.children.size(); ++i) {
    if (!deep_equal(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

}  // namespace dtio::dl
