#include "src/codec/row_ops.h"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace slim {

void ScanColorsScalar(const Pixel* row, size_t n, ColorScan* scan) {
  for (size_t i = 0; i < n; ++i) {
    const Pixel p = row[i];
    if (scan->distinct == 0) {
      scan->first = p;
      scan->distinct = 1;
    } else if (p != scan->first) {
      if (scan->distinct == 1) {
        scan->second = p;
        scan->distinct = 2;
      } else if (p != scan->second) {
        scan->distinct = 3;
        return;
      }
    }
  }
}

void PackBitmapRowScalar(const Pixel* row, size_t n, Pixel fg, uint8_t* out) {
  size_t x = 0;
  const size_t stride = (n + 7) / 8;
  for (size_t byte = 0; byte < stride; ++byte) {
    const size_t lanes = std::min<size_t>(8, n - x);
    uint8_t packed = 0;
    for (size_t bit = 0; bit < lanes; ++bit, ++x) {
      if (row[x] == fg) {
        packed |= static_cast<uint8_t>(1u << (7 - bit));
      }
    }
    out[byte] = packed;
  }
}

bool RowDiffSpan(const Pixel* a, const Pixel* b, size_t n, int32_t* lo, int32_t* hi) {
  if (n == 0 || std::memcmp(a, b, n * sizeof(Pixel)) == 0) {
    return false;
  }
  size_t first = 0;
  while (a[first] == b[first]) {
    ++first;
  }
  size_t last = n;  // exclusive
  while (a[last - 1] == b[last - 1]) {
    --last;
  }
  *lo = static_cast<int32_t>(first);
  *hi = static_cast<int32_t>(last);
  return true;
}

#if defined(__SSE2__)

namespace {

// movemask puts pixel 0 in bit 0, but bitmap rows are packed MSB-first (pixel 0 in
// bit 7), so the packer runs each 8-pixel mask through this table.
constexpr std::array<uint8_t, 256> kBitReverse = [] {
  std::array<uint8_t, 256> table{};
  for (int i = 0; i < 256; ++i) {
    uint8_t r = 0;
    for (int bit = 0; bit < 8; ++bit) {
      r = static_cast<uint8_t>(r | (((i >> bit) & 1) << (7 - bit)));
    }
    table[static_cast<size_t>(i)] = r;
  }
  return table;
}();

// 4-bit mask with bit j set iff pixel j equals c.
inline int EqMask4(const Pixel* p, __m128i c) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  return _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, c)));
}

// 4-bit mask with bit j set iff pixel j matches either color.
inline int MatchMask4(const Pixel* p, __m128i c1, __m128i c2) {
  const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  const __m128i ok = _mm_or_si128(_mm_cmpeq_epi32(v, c1), _mm_cmpeq_epi32(v, c2));
  return _mm_movemask_ps(_mm_castsi128_ps(ok));
}

}  // namespace

void ScanColors(const Pixel* row, size_t n, ColorScan* scan) {
  size_t i = 0;
  if (n == 0 || scan->distinct >= 3) {
    return;
  }
  if (scan->distinct == 0) {
    scan->first = row[0];
    scan->distinct = 1;
    i = 1;
  }
  for (;;) {
    const __m128i c1 = _mm_set1_epi32(static_cast<int32_t>(scan->first));
    const __m128i c2 = _mm_set1_epi32(
        static_cast<int32_t>(scan->distinct == 2 ? scan->second : scan->first));
    bool mismatch = false;
    for (; i + 4 <= n; i += 4) {
      const int mask = MatchMask4(row + i, c1, c2);
      if (mask != 0xf) {
        i += static_cast<size_t>(__builtin_ctz(~static_cast<unsigned>(mask) & 0xfu));
        mismatch = true;
        break;
      }
    }
    if (!mismatch) {
      ScanColorsScalar(row + i, n - i, scan);  // < 4 pixels left
      return;
    }
    if (scan->distinct == 1) {
      scan->second = row[i];
      scan->distinct = 2;
      ++i;
      continue;
    }
    scan->distinct = 3;
    return;
  }
}

void PackBitmapRow(const Pixel* row, size_t n, Pixel fg, uint8_t* out) {
  const __m128i f = _mm_set1_epi32(static_cast<int32_t>(fg));
  size_t x = 0;
  size_t byte = 0;
  for (; x + 8 <= n; x += 8, ++byte) {
    const int mask = EqMask4(row + x, f) | (EqMask4(row + x + 4, f) << 4);
    out[byte] = kBitReverse[static_cast<size_t>(mask)];
  }
  if (x < n) {
    PackBitmapRowScalar(row + x, n - x, fg, out + byte);
  }
}

#else  // !__SSE2__

void ScanColors(const Pixel* row, size_t n, ColorScan* scan) {
  ScanColorsScalar(row, n, scan);
}

void PackBitmapRow(const Pixel* row, size_t n, Pixel fg, uint8_t* out) {
  PackBitmapRowScalar(row, n, fg, out);
}

#endif  // __SSE2__

}  // namespace slim
