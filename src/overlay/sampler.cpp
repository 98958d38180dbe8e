#include "overlay/sampler.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace ppo::overlay {

using privacylink::pseudonym_distance;
using privacylink::random_pseudonym_value;

namespace {

/// Standalone mode sizes its private arena to hold exactly one
/// sampler's arrays (5 eight-byte and 2 one-byte fields per slot).
std::size_t standalone_arena_bytes(std::size_t slots) {
  return std::max<std::size_t>(64, slots * 48 + 64);
}

}  // namespace

SlotSampler::SlotSampler(std::size_t slots, unsigned bits, Rng& rng,
                         double min_dwell)
    : SlotSampler(nullptr, slots, bits, rng, min_dwell) {}

SlotSampler::SlotSampler(Arena& arena, std::size_t slots, unsigned bits,
                         Rng& rng, double min_dwell)
    : SlotSampler(&arena, slots, bits, rng, min_dwell) {}

SlotSampler::SlotSampler(Arena* arena, std::size_t slots, unsigned bits,
                         Rng& rng, double min_dwell)
    : min_dwell_(min_dwell) {
  if (arena == nullptr)
    arena = &owned_.emplace(standalone_arena_bytes(slots));
  references_ = arena->allocate_span<PseudonymValue>(slots);
  values_ = arena->allocate_span<PseudonymValue>(slots);
  expiries_ = arena->allocate_span<sim::Time>(slots);
  distances_ = arena->allocate_span<std::uint64_t>(slots);
  placed_at_ = arena->allocate_span<sim::Time>(slots);
  live_ = arena->allocate_span<std::uint8_t>(slots);
  vacated_ = arena->allocate_span<std::uint8_t>(slots);
  // Same draw order as slot construction always had: one reference
  // value per slot, in slot order.
  for (std::size_t i = 0; i < slots; ++i)
    references_[i] = random_pseudonym_value(rng, bits);
}

void SlotSampler::place(std::size_t i, const PseudonymRecord& record,
                        sim::Time now, bool check_closeness) {
  // Expired content counts as an empty, expiry-vacated slot.
  if (live_[i] != 0 && !(now < expiries_[i])) {
    live_[i] = 0;
    vacated_[i] = 1;
    ++epoch_;
  }

  if (live_[i] == 0) {
    values_[i] = record.value;
    expiries_[i] = record.expiry;
    distances_[i] = pseudonym_distance(record.value, references_[i]);
    placed_at_[i] = now;
    live_[i] = 1;
    ++epoch_;
    if (vacated_[i] != 0) {
      ++counters_.refills_after_expiry;
      vacated_[i] = 0;
    } else {
      ++counters_.initial_fills;
    }
    return;
  }

  if (!check_closeness) return;  // naive mode never displaces

  if (values_[i] == record.value) {
    // Same pseudonym re-offered: refresh expiry knowledge, no change.
    if (record.expiry > expiries_[i]) {
      expiries_[i] = record.expiry;
      ++epoch_;
    }
    return;
  }

  const std::uint64_t offered =
      pseudonym_distance(record.value, references_[i]);
  const bool closer = offered < distances_[i];
  const bool tie_later_expiry =
      offered == distances_[i] && record.expiry > expiries_[i];
  if (closer || tie_later_expiry) {
    // Damping defense: a live entry keeps its slot until it has
    // dwelled min_dwell periods, no matter how close the challenger.
    if (min_dwell_ > 0.0 && now - placed_at_[i] < min_dwell_) {
      ++counters_.displacements_damped;
      return;
    }
    values_[i] = record.value;
    expiries_[i] = record.expiry;
    distances_[i] = offered;
    placed_at_[i] = now;
    ++epoch_;
    ++counters_.better_displacements;
  }
}

void SlotSampler::offer(const PseudonymRecord& record, sim::Time now) {
  if (!record.valid_at(now)) return;
  const PseudonymValue value = record.value;
  for (std::size_t i = 0; i < references_.size(); ++i) {
    // A live, unexpired slot holding another value that is strictly
    // closer than the offer is the common case, and one place() leaves
    // untouched (no write, no counter, no epoch bump): skip it. Every
    // other slot takes the full rule.
    if (live_[i] != 0 &&
        pseudonym_distance(value, references_[i]) > distances_[i] &&
        now < expiries_[i] && values_[i] != value)
      continue;
    place(i, record, now, /*check_closeness=*/true);
  }
}

void SlotSampler::offer_naive(const PseudonymRecord& record, sim::Time now,
                              Rng& rng) {
  if (!record.valid_at(now)) return;
  const std::size_t n = references_.size();
  // Visit slots in random order so the same received sequence does
  // not always land in the same slots.
  const std::size_t start =
      n == 0 ? 0 : static_cast<std::size_t>(rng.uniform_u64(n));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (start + k) % n;
    const bool was_empty = !slot_live_at(i, now);
    place(i, record, now, /*check_closeness=*/false);
    if (was_empty) return;  // placed (or became) — one slot per offer
  }
}

std::vector<PseudonymValue> SlotSampler::live_values(sim::Time now) const {
  std::vector<PseudonymValue> values;
  values.reserve(references_.size());
  live_values_into(now, values);
  return values;
}

void SlotSampler::live_values_into(sim::Time now,
                                   std::vector<PseudonymValue>& out) const {
  const std::size_t first = out.size();
  for (std::size_t i = 0; i < references_.size(); ++i)
    if (slot_live_at(i, now)) out.push_back(values_[i]);
  std::sort(out.begin() + first, out.end());
  out.erase(std::unique(out.begin() + first, out.end()), out.end());
}

sim::Time SlotSampler::earliest_live_expiry(sim::Time now) const {
  sim::Time earliest = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < references_.size(); ++i)
    if (slot_live_at(i, now)) earliest = std::min(earliest, expiries_[i]);
  return earliest;
}

std::size_t SlotSampler::live_slots(sim::Time now) const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < references_.size(); ++i)
    count += slot_live_at(i, now);
  return count;
}

void SlotSampler::purge_expired(sim::Time now) {
  for (std::size_t i = 0; i < references_.size(); ++i) {
    if (live_[i] != 0 && !(now < expiries_[i])) {
      live_[i] = 0;
      vacated_[i] = 1;
      ++epoch_;
    }
  }
}

std::pair<PseudonymValue, std::optional<PseudonymRecord>> SlotSampler::slot(
    std::size_t i) const {
  PPO_CHECK_MSG(i < references_.size(), "slot index out of range");
  std::optional<PseudonymRecord> record;
  if (live_[i] != 0) record = PseudonymRecord{values_[i], expiries_[i]};
  return {references_[i], record};
}

std::vector<PseudonymValue> SlotSampler::references() const {
  return {references_.begin(), references_.end()};
}

void SlotSampler::save_state(ckpt::Writer& w) const {
  w.tag(0x534C4F54u);  // 'SLOT'
  w.f64(min_dwell_);
  w.u64(epoch_);
  w.u64(counters_.refills_after_expiry);
  w.u64(counters_.better_displacements);
  w.u64(counters_.initial_fills);
  w.u64(counters_.displacements_damped);
  w.size(references_.size());
  for (std::size_t i = 0; i < references_.size(); ++i) {
    w.u64(references_[i]);
    w.u64(values_[i]);
    w.f64(expiries_[i]);
    w.u64(distances_[i]);
    w.f64(placed_at_[i]);
    w.u8(live_[i]);
    w.u8(vacated_[i]);
  }
}

void SlotSampler::load_state(ckpt::Reader& r) {
  r.tag(0x534C4F54u);
  const double min_dwell = r.f64();
  if (min_dwell != min_dwell_)
    throw ckpt::ParseError("sampler min_dwell mismatch");
  epoch_ = r.u64();
  counters_.refills_after_expiry = r.u64();
  counters_.better_displacements = r.u64();
  counters_.initial_fills = r.u64();
  counters_.displacements_damped = r.u64();
  if (r.size() != references_.size())
    throw ckpt::ParseError("sampler slot count mismatch");
  for (std::size_t i = 0; i < references_.size(); ++i) {
    const PseudonymValue reference = r.u64();
    // The reconstructed node redraws the same references from the same
    // stream; a mismatch means seed/params drift, not corruption.
    if (reference != references_[i])
      throw ckpt::ParseError("sampler reference value mismatch");
    values_[i] = r.u64();
    expiries_[i] = r.f64();
    distances_[i] = r.u64();
    placed_at_[i] = r.f64();
    live_[i] = r.u8();
    vacated_[i] = r.u8();
  }
}

}  // namespace ppo::overlay
