#include "util/bit_matrix.h"

namespace poetbin {

void transpose64(std::uint64_t* block) {
  // Round `width` swaps the off-diagonal width x width sub-blocks of every
  // 2*width x 2*width tile: the high `width` bits of row k trade places
  // with the low `width` bits of row k + width. `mask` selects the low half
  // of each 2*width-bit field.
  std::uint64_t mask = 0x00000000FFFFFFFFULL;
  for (std::size_t width = 32; width != 0;
       width >>= 1, mask ^= mask << width) {
    for (std::size_t tile = 0; tile < 64; tile += 2 * width) {
      // Unit-stride over the tile's top half, so the round vectorizes.
      for (std::size_t k = tile; k < tile + width; ++k) {
        const std::uint64_t t =
            ((block[k] >> width) ^ block[k + width]) & mask;
        block[k] ^= t << width;
        block[k + width] ^= t;
      }
    }
  }
}

BitMatrix BitMatrix::select_rows(const std::vector<std::size_t>& row_indices) const {
  BitMatrix out(row_indices.size(), cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    const BitVector& src = cols_[c];
    BitVector& dst = out.cols_[c];
    for (std::size_t r = 0; r < row_indices.size(); ++r) {
      POETBIN_CHECK(row_indices[r] < n_rows_);
      dst.set(r, src.get(row_indices[r]));
    }
  }
  return out;
}

void BitMatrix::append_row(const std::vector<bool>& bits) {
  POETBIN_CHECK(bits.size() == cols_.size());
  for (std::size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].push_back(bits[c]);
  }
  ++n_rows_;
}

}  // namespace poetbin
