#include "src/fb/framebuffer.h"

#include <algorithm>
#include <cstring>

#include "src/fb/row_hash.h"
#include "src/util/check.h"

namespace slim {

Framebuffer::Framebuffer(int32_t width, int32_t height, Pixel fill)
    : width_(width), height_(height) {
  SLIM_CHECK(width > 0 && height > 0);
  data_.assign(static_cast<size_t>(width) * height, fill);
}

Pixel Framebuffer::GetPixel(int32_t x, int32_t y) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) {
    return kBlack;
  }
  return data_[static_cast<size_t>(y) * width_ + x];
}

void Framebuffer::PutPixel(int32_t x, int32_t y, Pixel p) {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) {
    return;
  }
  data_[static_cast<size_t>(y) * width_ + x] = p;
}

void Framebuffer::Fill(const Rect& r, Pixel color) {
  const Rect clipped = Intersect(r, bounds());
  for (int32_t y = clipped.y; y < clipped.bottom(); ++y) {
    Pixel* row = &data_[static_cast<size_t>(y) * width_];
    std::fill(row + clipped.x, row + clipped.right(), color);
  }
}

void Framebuffer::SetPixels(const Rect& r, std::span<const Pixel> pixels) {
  if (r.empty()) {
    return;
  }
  SLIM_CHECK(pixels.size() >= static_cast<size_t>(r.area()));
  const Rect clipped = Intersect(r, bounds());
  for (int32_t y = clipped.y; y < clipped.bottom(); ++y) {
    const size_t src_row = static_cast<size_t>(y - r.y) * r.w + (clipped.x - r.x);
    Pixel* dst = &data_[static_cast<size_t>(y) * width_ + clipped.x];
    std::memcpy(dst, &pixels[src_row], static_cast<size_t>(clipped.w) * sizeof(Pixel));
  }
}

void Framebuffer::ExpandBitmap(const Rect& r, std::span<const uint8_t> bits, Pixel fg,
                               Pixel bg) {
  if (r.empty()) {
    return;
  }
  const size_t stride = (static_cast<size_t>(r.w) + 7) / 8;
  SLIM_CHECK(bits.size() >= stride * static_cast<size_t>(r.h));
  const Rect clipped = Intersect(r, bounds());
  // Bit b of a row is pixel r.x + b. Only the columns [first, end) land in bounds; whole
  // bytes expand 8 pixels per step, the unaligned bits at either end one at a time.
  const int32_t first = clipped.x - r.x;
  const int32_t end = clipped.right() - r.x;
  const auto bit = [](const uint8_t* row_bits, int32_t b) {
    return (row_bits[b >> 3] >> (7 - (b & 7))) & 1;
  };
  for (int32_t y = clipped.y; y < clipped.bottom(); ++y) {
    const uint8_t* row_bits = &bits[static_cast<size_t>(y - r.y) * stride];
    Pixel* dst = &data_[static_cast<size_t>(y) * width_ + clipped.x];
    int32_t b = first;
    for (; b < end && (b & 7) != 0; ++b) {
      *dst++ = bit(row_bits, b) ? fg : bg;
    }
    for (; b + 8 <= end; b += 8) {
      const unsigned byte = row_bits[b >> 3];
      for (int k = 0; k < 8; ++k) {
        dst[k] = (byte >> (7 - k)) & 1 ? fg : bg;
      }
      dst += 8;
    }
    for (; b < end; ++b) {
      *dst++ = bit(row_bits, b) ? fg : bg;
    }
  }
}

void Framebuffer::CopyRect(int32_t src_x, int32_t src_y, const Rect& dst) {
  if (dst.empty()) {
    return;
  }
  const Rect src{src_x, src_y, dst.w, dst.h};
  if (!bounds().ContainsRect(src)) {
    // A source reaching off the framebuffer pads with black, so stage it through a
    // temporary that ReadPixels black-fills and write the staged block out.
    std::vector<Pixel> staged;
    ReadPixels(src, &staged);
    SetPixels(dst, staged);
    return;
  }
  const Rect clipped = Intersect(dst, bounds());
  if (clipped.empty()) {
    return;
  }
  // In place, with the result of a simultaneous move: memmove handles overlap within a
  // row, and rows go bottom-up when the destination lies below the source, so every
  // source row is read before a destination row overwrites it.
  const int32_t sx = src_x + (clipped.x - dst.x);
  const int32_t sy = src_y + (clipped.y - dst.y);
  const size_t bytes = static_cast<size_t>(clipped.w) * sizeof(Pixel);
  const auto move_row = [&](int32_t i) {
    std::memmove(&data_[static_cast<size_t>(clipped.y + i) * width_ + clipped.x],
                 &data_[static_cast<size_t>(sy + i) * width_ + sx], bytes);
  };
  if (clipped.y > sy) {
    for (int32_t i = clipped.h - 1; i >= 0; --i) {
      move_row(i);
    }
  } else {
    for (int32_t i = 0; i < clipped.h; ++i) {
      move_row(i);
    }
  }
}

void Framebuffer::ReadPixels(const Rect& r, std::vector<Pixel>* out) const {
  SLIM_DCHECK(out != nullptr);
  out->assign(static_cast<size_t>(std::max<int64_t>(r.area(), 0)), kBlack);
  if (r.empty()) {
    return;
  }
  const Rect clipped = Intersect(r, bounds());
  for (int32_t y = clipped.y; y < clipped.bottom(); ++y) {
    const Pixel* src = &data_[static_cast<size_t>(y) * width_ + clipped.x];
    Pixel* dst = &(*out)[static_cast<size_t>(y - r.y) * r.w + (clipped.x - r.x)];
    std::memcpy(dst, src, static_cast<size_t>(clipped.w) * sizeof(Pixel));
  }
}

uint64_t Framebuffer::ContentHash() const { return RowHash64(data_); }

Framebuffer::Diff Framebuffer::DiffWith(const Framebuffer& other) const {
  SLIM_CHECK(width_ == other.width_ && height_ == other.height_);
  Diff diff;
  constexpr int32_t kTile = 16;
  for (int32_t ty = 0; ty < height_; ty += kTile) {
    const int32_t th = std::min(kTile, height_ - ty);
    int32_t run_start = -1;
    for (int32_t tx = 0; tx < width_ + kTile; tx += kTile) {
      bool tile_dirty = false;
      if (tx < width_) {
        const int32_t tw = std::min(kTile, width_ - tx);
        for (int32_t y = ty; y < ty + th && !tile_dirty; ++y) {
          const Pixel* a = &data_[static_cast<size_t>(y) * width_ + tx];
          const Pixel* b = &other.data_[static_cast<size_t>(y) * width_ + tx];
          tile_dirty = std::memcmp(a, b, static_cast<size_t>(tw) * sizeof(Pixel)) != 0;
        }
      }
      if (tile_dirty && run_start < 0) {
        run_start = tx;
      } else if (!tile_dirty && run_start >= 0) {
        diff.damage.Add(Rect{run_start, ty, std::min(tx, width_) - run_start, th});
        run_start = -1;
      }
    }
  }
  for (size_t i = 0; i < data_.size(); ++i) {
    if (data_[i] != other.data_[i]) {
      ++diff.differing_pixels;
    }
  }
  return diff;
}

}  // namespace slim
