#include "src/codec/damage_tracker.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/codec/encoder.h"
#include "src/codec/row_ops.h"
#include "src/fb/row_hash.h"
#include "src/util/check.h"

namespace slim {
namespace {

// A run of consecutive dirty rows and the union of their changed column extents.
struct DirtyRun {
  int32_t y0 = 0;
  int32_t y1 = 0;  // exclusive
  int32_t x_lo = 0;
  int32_t x_hi = 0;  // exclusive
};

// Bounding encoder work per damage rect: beyond this many dirty runs the refinement is
// fragmentation, not savings, and one rect covering the dirty rows encodes faster than
// dozens of slivers (the encoder's own band/chunk analysis re-finds the structure).
constexpr size_t kMaxRunsPerRect = 48;

// Scroll salvage is only worth the detector pass on damage that plausibly IS a scroll:
// a block at least this tall/wide with at least this many rows actually changed.
constexpr int32_t kScrollMinWidth = 8;
constexpr int32_t kScrollMinHeight = 16;
constexpr int32_t kScrollMinDirtyRows = 8;

}  // namespace

bool DamageTrackerFromEnv(bool fallback) {
  const char* value = std::getenv("SLIM_DAMAGE_TRACKER");
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "slim: ignoring SLIM_DAMAGE_TRACKER='%s' (want an integer)\n",
                 value);
    return fallback;
  }
  return parsed != 0;
}

DamageTracker::DamageTracker(int32_t width, int32_t height)
    : shadow_(width, height),
      row_hashes_(static_cast<size_t>(height)),
      row_stale_(static_cast<size_t>(height), uint8_t{1}) {}

uint64_t DamageTracker::row_hash(int32_t y) const {
  const size_t i = static_cast<size_t>(y);
  if (row_stale_[i]) {
    row_hashes_[i] = RowHash64(shadow_.Row(y));
    row_stale_[i] = 0;
  }
  return row_hashes_[i];
}

void DamageTracker::CopySpans(const Framebuffer& fb, int32_t y0, int32_t y1, int32_t x0,
                              int32_t w) {
  for (int32_t y = y0; y < y1; ++y) {
    std::memcpy(shadow_.MutableRow(y, x0, w).data(), fb.Row(y, x0, w).data(),
                static_cast<size_t>(w) * sizeof(Pixel));
  }
  std::fill(row_stale_.begin() + y0, row_stale_.begin() + y1, uint8_t{1});
}

void DamageTracker::RestoreShadow(std::span<const Pixel> pixels,
                                  std::span<const uint64_t> hashes, bool valid) {
  SLIM_CHECK(pixels.size() == shadow_.data().size());
  SLIM_CHECK(hashes.size() == row_hashes_.size());
  const int32_t width = shadow_.width();
  for (int32_t y = 0; y < shadow_.height(); ++y) {
    std::memcpy(shadow_.MutableRow(y, 0, width).data(),
                pixels.data() + static_cast<size_t>(y) * width,
                static_cast<size_t>(width) * sizeof(Pixel));
  }
  std::copy(hashes.begin(), hashes.end(), row_hashes_.begin());
  std::fill(row_stale_.begin(), row_stale_.end(), uint8_t{0});
  valid_ = valid;
}

void DamageTracker::SyncRect(const Framebuffer& fb, const Rect& rect) {
  SLIM_DCHECK(fb.width() == shadow_.width() && fb.height() == shadow_.height());
  const Rect r = Intersect(rect, shadow_.bounds());
  if (r.empty()) {
    return;
  }
  CopySpans(fb, r.y, r.bottom(), r.x, r.w);
}

void DamageTracker::FillRect(const Rect& rect, Pixel color) {
  const Rect r = Intersect(rect, shadow_.bounds());
  if (r.empty()) {
    return;
  }
  shadow_.Fill(r, color);
  std::fill(row_stale_.begin() + r.y, row_stale_.begin() + r.bottom(), uint8_t{1});
}

Region DamageTracker::Refine(const Framebuffer& fb, const Region& damage,
                             int32_t scroll_max_shift,
                             std::vector<DisplayCommand>* scroll_out) {
  SLIM_DCHECK(fb.width() == shadow_.width() && fb.height() == shadow_.height());
  if (damage.empty()) {
    return Region{};
  }

  if (!valid_) {
    // The shadow can't be trusted (fresh console, loss-recovery resync): pass the damage
    // through unrefined while absorbing it, and revalidate once a full-frame flush has
    // passed. Disjoint damage rects covering the full area cover every pixel.
    for (const Rect& r : damage.rects()) {
      SLIM_DCHECK(shadow_.bounds().ContainsRect(r));
      SyncRect(fb, r);
    }
    if (damage.area() == shadow_.bounds().area()) {
      valid_ = true;
    }
    return damage;
  }

  // Full-row hashes of fb for rows [hashed_y0, hashed_y1), filled in by the full-width
  // scroll gate below. fb is const for the whole call, so they stay valid even as shadow
  // rows are re-synced.
  if (fb_row_hashes_.size() != static_cast<size_t>(shadow_.height())) {
    fb_row_hashes_.assign(static_cast<size_t>(shadow_.height()), 0);
  }
  int32_t hashed_y0 = 0;
  int32_t hashed_y1 = 0;
  const auto fb_hashed = [&](int32_t y) { return y >= hashed_y0 && y < hashed_y1; };
  // Syncs the shadow's row y to fb over columns [x0, x0+w). When that leaves the whole
  // shadow row equal to fb's and fb's row hash is known, the row hash comes from it;
  // otherwise the row goes stale.
  const auto sync_row = [&](int32_t y, int32_t x0, int32_t w, bool row_now_matches_fb) {
    std::memcpy(shadow_.MutableRow(y, x0, w).data(), fb.Row(y, x0, w).data(),
                static_cast<size_t>(w) * sizeof(Pixel));
    const size_t i = static_cast<size_t>(y);
    if (row_now_matches_fb && fb_hashed(y)) {
      row_hashes_[i] = fb_row_hashes_[i];
      row_stale_[i] = 0;
    } else {
      row_stale_[i] = 1;
    }
  };

  // Scroll salvage: when the damage block looks like the shadow shifted vertically
  // (hint-less scrolls arrive as "the whole window changed"), ship the shift as one COPY
  // and let refinement handle only the residual. Correctness never depends on the
  // detector: whatever still differs after the copy is caught below.
  if (scroll_out != nullptr && scroll_max_shift > 0) {
    const Rect b = damage.bounds();
    if (b.w >= kScrollMinWidth && b.h >= kScrollMinHeight) {
      // Count changed rows. The shadow equals fb outside pending damage, so a row
      // differs somewhere iff it differs over the bounds' columns: a full-width block
      // compares row hashes (the detector below reuses them as hints), a narrower one
      // memcmps its columns and stops once the count is decided.
      const bool full_rows = b.x == 0 && b.w == shadow_.width();
      int32_t dirty_rows = 0;
      if (full_rows) {
        for (int32_t y = b.y; y < b.bottom(); ++y) {
          const size_t i = static_cast<size_t>(y);
          fb_row_hashes_[i] = RowHash64(fb.Row(y));
          dirty_rows += fb_row_hashes_[i] != row_hash(y) ? 1 : 0;
        }
        hashed_y0 = b.y;
        hashed_y1 = b.bottom();
      } else {
        for (int32_t y = b.y; y < b.bottom() && dirty_rows < kScrollMinDirtyRows; ++y) {
          if (std::memcmp(fb.Row(y, b.x, b.w).data(), shadow_.Row(y, b.x, b.w).data(),
                          static_cast<size_t>(b.w) * sizeof(Pixel)) != 0) {
            ++dirty_rows;
          }
        }
      }
      if (dirty_rows >= kScrollMinDirtyRows) {
        // A full-width detector reuses the hashes both sides now have: settled shadow
        // row hashes as `before`, the gate's fb row hashes as `after`. It ignores the
        // hints for narrower blocks and hashes the block's columns itself.
        const ScrollHashHints hints{row_hashes_, fb_row_hashes_};
        const int32_t dy = DetectVerticalScroll(shadow_, fb, b, scroll_max_shift, &hints);
        if (dy != 0) {
          const int32_t y0 = std::max(b.y, b.y + dy);
          const int32_t y1 = std::min(b.bottom(), b.bottom() + dy);
          scroll_out->push_back(CopyCommand{b.x, y0 - dy, Rect{b.x, y0, b.w, y1 - y0}});
          // The console will apply the COPY to its framebuffer, which matches the shadow;
          // mirror it so refinement diffs against the post-copy display state. The
          // detector confirmed fb == shifted shadow over the overlap's rect columns, so
          // copying fb's rows IS applying the COPY — and spares rereading the shadow.
          for (int32_t y = y0; y < y1; ++y) {
            sync_row(y, b.x, b.w, full_rows);
          }
        }
      }
    }
  }

  Region refined;
  for (const Rect& r : damage.rects()) {
    SLIM_DCHECK(shadow_.bounds().ContainsRect(r));
    std::vector<DirtyRun> runs;
    bool collapsed = false;
    for (int32_t y = r.y; y < r.bottom(); ++y) {
      // Cheap filter first, when both hashes are already known: a full fb row hashing
      // to the shadow's hash is unchanged everywhere, so in particular over this rect's
      // columns. Hashing a row just for this would cost more than the diff below.
      const size_t i = static_cast<size_t>(y);
      if (fb_hashed(y) && !row_stale_[i] && fb_row_hashes_[i] == row_hashes_[i]) {
        continue;
      }
      const std::span<const Pixel> cur = fb.Row(y, r.x, r.w);
      const std::span<const Pixel> old = shadow_.Row(y, r.x, r.w);
      // Tight changed extent — first and last differing pixel in the rect's columns —
      // from one RowDiffSpan call.
      int32_t lo = 0;
      int32_t hi = r.w;  // exclusive
      if (!RowDiffSpan(cur.data(), old.data(), cur.size(), &lo, &hi)) {
        continue;  // nothing changed in this rect's columns
      }
      // Bring the shadow up to date for this row before moving on. A full-width rect
      // leaves the whole shadow row equal to fb's.
      sync_row(y, r.x + lo, hi - lo, r.x == 0 && r.w == shadow_.width());

      if (!runs.empty() && runs.back().y1 == y) {
        DirtyRun& run = runs.back();
        run.y1 = y + 1;
        run.x_lo = std::min(run.x_lo, r.x + lo);
        run.x_hi = std::max(run.x_hi, r.x + hi);
      } else if (!collapsed && runs.size() >= kMaxRunsPerRect) {
        collapsed = true;
        runs.push_back(DirtyRun{y, y + 1, r.x + lo, r.x + hi});
      } else if (collapsed) {
        DirtyRun& run = runs.back();
        run.y1 = y + 1;
        run.x_lo = std::min(run.x_lo, r.x + lo);
        run.x_hi = std::max(run.x_hi, r.x + hi);
      } else {
        runs.push_back(DirtyRun{y, y + 1, r.x + lo, r.x + hi});
      }
    }
    if (collapsed) {
      // Too fragmented to be worth rect-per-run: merge everything dirty in this rect into
      // one bounding rect (still inside r, still disjoint from other rects' output).
      DirtyRun all = runs.front();
      for (const DirtyRun& run : runs) {
        all.y0 = std::min(all.y0, run.y0);
        all.y1 = std::max(all.y1, run.y1);
        all.x_lo = std::min(all.x_lo, run.x_lo);
        all.x_hi = std::max(all.x_hi, run.x_hi);
      }
      runs.assign(1, all);
    }
    for (const DirtyRun& run : runs) {
      refined.AddDisjoint(Rect{run.x_lo, run.y0, run.x_hi - run.x_lo, run.y1 - run.y0});
    }
  }
  return refined;
}

}  // namespace slim
