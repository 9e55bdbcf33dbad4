// JointWalker: lockstep traversal of a memory datatype and a file view.
//
// Produces maximal (memory offset, file offset, length) triples — the
// pieces that are contiguous on BOTH sides simultaneously. This is the
// granularity POSIX I/O must issue operations at, and the pair granularity
// ROMIO's flattening feeds to list I/O (which is why the paper's FLASH
// run needs 983 040 pieces: 8-byte elements are the joint granularity even
// though the file side alone is 4 KiB-contiguous).
//
// Streaming: nothing is materialised, so arbitrarily fine-grained accesses
// walk in O(1) memory. next_run() hands out arithmetic runs of pieces so a
// caller that needs every piece pays one cursor step per run, not per
// piece; the pieces themselves do not change.
#pragma once

#include <algorithm>
#include <cstdint>

#include "dataloop/cursor.h"

namespace dtio::io {

class JointWalker {
 public:
  /// Both cursors must cover the same number of stream bytes.
  JointWalker(dl::Cursor mem, dl::Cursor file)
      : mem_(std::move(mem)), file_(std::move(file)) {}

  struct Piece {
    std::int64_t mem_offset = 0;
    std::int64_t file_offset = 0;
    std::int64_t length = 0;

    friend bool operator==(const Piece&, const Piece&) = default;
  };

  /// `count` joint pieces of `length` bytes; piece i sits at
  /// mem_offset + i*mem_stride in memory and file_offset + i*file_stride
  /// in the file. A host-side shape only: its pieces are exactly the ones
  /// successive next() calls return.
  struct Run {
    std::int64_t mem_offset = 0;
    std::int64_t file_offset = 0;
    std::int64_t length = 0;
    std::int64_t mem_stride = 0;
    std::int64_t file_stride = 0;
    std::int64_t count = 0;

    [[nodiscard]] Piece piece(std::int64_t i) const noexcept {
      return Piece{mem_offset + i * mem_stride, file_offset + i * file_stride,
                   length};
    }
  };

  /// Next run of at most `max_count` joint pieces; false at end of stream.
  /// Equal-length cursor runs pair element by element; otherwise the
  /// shorter side's run splits the longer side's first region (FLASH:
  /// 8-byte memory elements at stride 192 against a 320 KiB file region).
  bool next_run(std::int64_t max_count, Run& out) {
    dl::Run m, f;
    if (max_count <= 0 || !mem_.peek_run(m) || !file_.peek_run(f)) {
      return false;
    }
    if (m.length == f.length) {
      const std::int64_t n = std::min({m.count, f.count, max_count});
      out = Run{m.offset, f.offset, m.length, m.stride, f.stride, n};
      mem_.advance_run(m, n);
      file_.advance_run(f, n);
    } else if (m.length < f.length) {
      const std::int64_t n =
          std::min({m.count, f.length / m.length, max_count});
      out = Run{m.offset, f.offset, m.length, m.stride, m.length, n};
      mem_.advance_run(m, n);
      file_.advance(n * m.length);
    } else {
      const std::int64_t n =
          std::min({f.count, m.length / f.length, max_count});
      out = Run{m.offset, f.offset, f.length, f.length, f.stride, n};
      mem_.advance(n * f.length);
      file_.advance_run(f, n);
    }
    return true;
  }

  /// Next joint piece; false at end of stream.
  bool next(Piece& out) {
    Run run;
    if (!next_run(1, run)) return false;
    out = run.piece(0);
    return true;
  }

  [[nodiscard]] bool done() { return mem_.done() || file_.done(); }

 private:
  dl::Cursor mem_;
  dl::Cursor file_;
};

}  // namespace dtio::io
