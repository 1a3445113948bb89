#include "tests/support/scroll_probe.h"

#include <algorithm>
#include <cstring>

namespace slim {
namespace {

// after(x, ya) == before(x, yb) for all x in [x0, x0+w), pixels outside a frame reading
// as black: memcmp when both row spans are in bounds, GetPixel otherwise.
bool RowsEqual(const Framebuffer& after, int32_t ya, const Framebuffer& before, int32_t yb,
               int32_t x0, int32_t w) {
  const auto in = [&](const Framebuffer& fb, int32_t y) {
    return y >= 0 && y < fb.height() && x0 >= 0 && x0 + w <= fb.width();
  };
  if (in(after, ya) && in(before, yb)) {
    return std::memcmp(after.Row(ya, x0, w).data(), before.Row(yb, x0, w).data(),
                       static_cast<size_t>(w) * sizeof(Pixel)) == 0;
  }
  for (int32_t x = x0; x < x0 + w; ++x) {
    if (after.GetPixel(x, ya) != before.GetPixel(x, yb)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int32_t DetectVerticalScrollProbe(const Framebuffer& before, const Framebuffer& after,
                                  const Rect& rect, int32_t max_shift) {
  const Rect r = Intersect(rect, after.bounds());
  if (r.empty() || r.h < 8 || r.w < 8) {
    return 0;
  }
  // Sample a sparse grid of probe points; a shift must explain nearly all of them. The
  // probe count is clamped to the rect so integer-division positions never collapse onto
  // duplicate columns/rows: with probes <= extent the stride is at least one pixel, and a
  // duplicated probe would count the same pixel twice, inflating the grid's confidence.
  constexpr int32_t kProbesX = 16;
  constexpr int32_t kProbesY = 16;
  const int32_t probes_x = std::min(kProbesX, r.w);
  const int32_t probes_y = std::min(kProbesY, r.h);
  for (int32_t magnitude = 1; magnitude <= max_shift; ++magnitude) {
    for (const int32_t dy : {-magnitude, magnitude}) {
      int matches = 0;
      int probes = 0;
      for (int32_t py = 0; py < probes_y; ++py) {
        const int32_t y = r.y + static_cast<int64_t>(py) * r.h / probes_y;
        const int32_t sy = y - dy;
        if (sy < r.y || sy >= r.bottom()) {
          continue;
        }
        for (int32_t px = 0; px < probes_x; ++px) {
          const int32_t x = r.x + static_cast<int64_t>(px) * r.w / probes_x;
          ++probes;
          if (after.GetPixel(x, y) == before.GetPixel(x, sy)) {
            ++matches;
          }
        }
      }
      if (probes > 0 && matches == probes) {
        // Confirm exhaustively on the shifted interior before trusting the sparse probe.
        const int32_t y0 = std::max(r.y, r.y + dy);
        const int32_t y1 = std::min(r.bottom(), r.bottom() + dy);
        bool confirmed = true;
        for (int32_t y = y0; y < y1 && confirmed; ++y) {
          confirmed = RowsEqual(after, y, before, y - dy, r.x, r.w);
        }
        if (confirmed) {
          return dy;
        }
      }
    }
  }
  return 0;
}

}  // namespace slim
