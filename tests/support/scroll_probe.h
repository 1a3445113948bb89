// The original probe-grid vertical scroll detector, kept outside libslim as the reference
// that src/codec/encoder.h's hash-indexed DetectVerticalScroll is property-tested
// (tests/damage_tracker_test.cc) and benchmarked (bench/bench_damage_pipeline.cc)
// against. Nothing on the serving path uses it.

#ifndef TESTS_SUPPORT_SCROLL_PROBE_H_
#define TESTS_SUPPORT_SCROLL_PROBE_H_

#include <cstdint>

#include "src/fb/framebuffer.h"
#include "src/fb/geometry.h"

namespace slim {

// Same contract as DetectVerticalScroll: a dy in [-max_shift, max_shift] with
// after(x, y) == before(x, y - dy) over the whole shifted overlap of `rect`, or 0. Tries
// every magnitude in [1, max_shift], smallest first and negative before positive,
// sampling a sparse 16x16 probe grid before confirming exhaustively.
int32_t DetectVerticalScrollProbe(const Framebuffer& before, const Framebuffer& after,
                                  const Rect& rect, int32_t max_shift);

}  // namespace slim

#endif  // TESTS_SUPPORT_SCROLL_PROBE_H_
