// Per-row pixel loops of the refine and encode path: two-color scanning and BITMAP
// bit-packing for the encoder, and the changed-span search for the damage tracker.
//
// ScanColors and PackBitmapRow have one SSE2 body each, chosen at compile time
// (`#if defined(__SSE2__)`): SSE2 is the x86-64 baseline, so there is no CPU check and
// no build flag. On other targets they are the scalar bodies. The scalar bodies are
// exported as the reference tests/kernels_test.cc compares against: the SSE2 body must
// be bit-identical on every input (same first/second color choice, same packed bits),
// so the wire bytes never depend on the build target. RowDiffSpan has no vector body;
// one measured no faster than memcmp plus two short scans.

#ifndef SRC_CODEC_ROW_OPS_H_
#define SRC_CODEC_ROW_OPS_H_

#include <cstddef>
#include <cstdint>

#include "src/fb/framebuffer.h"

namespace slim {

// Incremental state for the encoder's two-color classification. `distinct` saturates at
// 3 (meaning "more than two"); `first`/`second` are the first two distinct pixel values
// in scan order.
struct ColorScan {
  int distinct = 0;
  Pixel first = 0;
  Pixel second = 0;
};

// Feeds n pixels into `scan`, stopping as soon as distinct hits 3. Safe to call row by
// row with the same state.
void ScanColors(const Pixel* row, size_t n, ColorScan* scan);
void ScanColorsScalar(const Pixel* row, size_t n, ColorScan* scan);

// Packs one row to 1bpp MSB-first: bit (7 - i%8) of out[i/8] is 1 iff row[i] == fg.
// Writes exactly (n+7)/8 bytes; trailing bits of the last byte are zero.
void PackBitmapRow(const Pixel* row, size_t n, Pixel fg, uint8_t* out);
void PackBitmapRowScalar(const Pixel* row, size_t n, Pixel fg, uint8_t* out);

// Returns false when a[0..n) == b[0..n); otherwise true with *lo / *hi set to the first
// differing index and one past the last differing index.
bool RowDiffSpan(const Pixel* a, const Pixel* b, size_t n, int32_t* lo, int32_t* hi);

}  // namespace slim

#endif  // SRC_CODEC_ROW_OPS_H_
