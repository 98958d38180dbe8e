// Brahms-style slot sampler (§III-D-2): the replacement rule, the
// expiry/refill accounting behind Figure 9, and the key uniformity
// property — samples are unbiased even under skewed receive rates.
#include <gtest/gtest.h>

#include <map>

#include "overlay/sampler.hpp"

namespace ppo::overlay {
namespace {

PseudonymRecord rec(PseudonymValue v, double expiry = 1000.0) {
  return PseudonymRecord{v, expiry};
}

TEST(Sampler, EmptySlotTakesFirstOffer) {
  Rng rng(1);
  SlotSampler sampler(4, 64, rng);
  sampler.offer(rec(123), 0.0);
  EXPECT_EQ(sampler.live_values(0.0), std::vector<PseudonymValue>{123});
  EXPECT_EQ(sampler.live_slots(0.0), 4u);  // one offer fills every slot
  EXPECT_EQ(sampler.counters().initial_fills, 4u);
  EXPECT_EQ(sampler.counters().replacements(), 0u);
}

TEST(Sampler, CloserValueDisplaces) {
  Rng rng(2);
  SlotSampler sampler(1, 64, rng);
  const auto [reference, empty] = sampler.slot(0);
  ASSERT_FALSE(empty.has_value());

  // Offer a far value, then a strictly closer one.
  const PseudonymValue far =
      reference > (1ull << 62) ? reference - (1ull << 40) : reference + (1ull << 40);
  const PseudonymValue near =
      reference > (1ull << 62) ? reference - 1000 : reference + 1000;
  sampler.offer(rec(far), 0.0);
  sampler.offer(rec(near), 0.0);
  EXPECT_EQ(sampler.slot(0).second->value, near);
  EXPECT_EQ(sampler.counters().better_displacements, 1u);

  // Re-offering the far one changes nothing.
  sampler.offer(rec(far), 0.0);
  EXPECT_EQ(sampler.slot(0).second->value, near);
  EXPECT_EQ(sampler.counters().better_displacements, 1u);
}

TEST(Sampler, TieBrokenByLaterExpiry) {
  Rng rng(3);
  SlotSampler sampler(1, 64, rng);
  const auto reference = sampler.slot(0).first;
  // Two values equidistant from the reference on either side.
  ASSERT_GT(reference, 1000u);
  const PseudonymValue below = reference - 100;
  const PseudonymValue above = reference + 100;
  sampler.offer(rec(below, 50.0), 0.0);
  sampler.offer(rec(above, 80.0), 0.0);  // same distance, later expiry
  EXPECT_EQ(sampler.slot(0).second->value, above);
  sampler.offer(rec(below, 60.0), 0.0);  // earlier expiry: rejected
  EXPECT_EQ(sampler.slot(0).second->value, above);
}

TEST(Sampler, ExpiredContentCountsAsEmptyAndRefillIsReplacement) {
  Rng rng(4);
  SlotSampler sampler(3, 64, rng);
  sampler.offer(rec(1, 10.0), 0.0);
  EXPECT_EQ(sampler.live_slots(5.0), 3u);
  EXPECT_EQ(sampler.live_slots(10.0), 0u);  // lazily expired

  sampler.offer(rec(2, 100.0), /*now=*/20.0);
  EXPECT_EQ(sampler.live_slots(20.0), 3u);
  EXPECT_EQ(sampler.counters().refills_after_expiry, 3u);
  EXPECT_EQ(sampler.counters().initial_fills, 3u);
}

TEST(Sampler, PurgeExpiredMarksVacated) {
  Rng rng(5);
  SlotSampler sampler(2, 64, rng);
  sampler.offer(rec(1, 10.0), 0.0);
  sampler.purge_expired(15.0);
  EXPECT_EQ(sampler.live_slots(15.0), 0u);
  sampler.offer(rec(2, 100.0), 15.0);
  EXPECT_EQ(sampler.counters().refills_after_expiry, 2u);
}

TEST(Sampler, ExpiredOffersIgnored) {
  Rng rng(6);
  SlotSampler sampler(2, 64, rng);
  sampler.offer(rec(1, 10.0), /*now=*/20.0);
  EXPECT_EQ(sampler.live_slots(20.0), 0u);
}

TEST(Sampler, SameValueReofferRefreshesExpiryWithoutCounting) {
  Rng rng(7);
  SlotSampler sampler(1, 64, rng);
  sampler.offer(rec(5, 50.0), 0.0);
  sampler.offer(rec(5, 70.0), 0.0);
  EXPECT_DOUBLE_EQ(sampler.slot(0).second->expiry, 70.0);
  EXPECT_EQ(sampler.counters().replacements(), 0u);
}

TEST(Sampler, LiveValuesDeduplicatesAcrossSlots) {
  Rng rng(8);
  SlotSampler sampler(10, 64, rng);
  sampler.offer(rec(42), 0.0);
  EXPECT_EQ(sampler.live_values(0.0).size(), 1u);
}

TEST(Sampler, ZeroSlotsIsValidHubConfiguration) {
  Rng rng(9);
  SlotSampler sampler(0, 64, rng);
  sampler.offer(rec(1), 0.0);
  EXPECT_TRUE(sampler.live_values(0.0).empty());
  EXPECT_EQ(sampler.counters().replacements(), 0u);
}

// The Brahms property: the sampled pseudonym converges to a uniform
// choice over all DISTINCT offered values, even when some values are
// offered orders of magnitude more often than others.
TEST(Sampler, UniformDespiteSkewedOfferRates) {
  Rng meta_rng(10);
  std::map<PseudonymValue, std::size_t> wins;
  const std::size_t kUniverse = 16;
  const int kTrials = 3000;
  for (int trial = 0; trial < kTrials; ++trial) {
    Rng rng(1000 + static_cast<std::uint64_t>(trial));
    SlotSampler sampler(1, 64, rng);
    // Values sit at odd multiples of 2^59: evenly spaced with equal
    // closeness basins (incl. the half-basin tails at both ends), so
    // a uniform reference value must pick each with probability 1/16.
    // Value #v is offered (v+1)^2 times — heavy skew in receive rate.
    std::vector<PseudonymRecord> offers;
    for (PseudonymValue v = 0; v < kUniverse; ++v)
      for (PseudonymValue k = 0; k < (v + 1) * (v + 1); ++k)
        offers.push_back(rec((2 * v + 1) << 59));
    Rng shuffle_rng = meta_rng.split();
    shuffle_rng.shuffle(offers);
    for (const auto& o : offers) sampler.offer(o, 0.0);
    ++wins[sampler.slot(0).second->value];
  }
  // Every distinct value should win roughly kTrials / kUniverse times.
  const double expected = static_cast<double>(kTrials) / kUniverse;
  EXPECT_EQ(wins.size(), kUniverse);
  double chi2 = 0.0;
  for (const auto& [value, count] : wins) {
    const double d = static_cast<double>(count) - expected;
    chi2 += d * d / expected;
  }
  // 15 dof, 0.001 critical value ~ 37.7; allow margin.
  EXPECT_LT(chi2, 45.0) << "sampler is biased by offer frequency";
}

TEST(Sampler, NaiveModeFillsButNeverDisplaces) {
  Rng rng(11);
  SlotSampler sampler(2, 64, rng);
  sampler.offer_naive(rec(1), 0.0, rng);
  sampler.offer_naive(rec(2), 0.0, rng);
  sampler.offer_naive(rec(3), 0.0, rng);  // both slots full: dropped
  const auto values = sampler.live_values(0.0);
  EXPECT_EQ(values.size(), 2u);
  EXPECT_EQ(sampler.counters().better_displacements, 0u);
}

/// The §III-D rule with no shortcut: every offer visits every slot with
/// the full per-slot rule. The reference SlotSampler::offer, which
/// skips the slots the rule would leave untouched, must reproduce
/// exactly.
struct ReferenceSampler {
  ReferenceSampler(std::vector<PseudonymValue> refs, double min_dwell)
      : references(std::move(refs)),
        values(references.size()),
        expiries(references.size()),
        distances(references.size()),
        placed_at(references.size()),
        live(references.size()),
        vacated(references.size()),
        min_dwell(min_dwell) {}

  static std::uint64_t distance(PseudonymValue a, PseudonymValue b) {
    return a > b ? a - b : b - a;
  }

  void place(std::size_t i, const PseudonymRecord& record, double now) {
    if (live[i] && !(now < expiries[i])) {
      live[i] = false;
      vacated[i] = true;
      ++epoch;
    }
    if (!live[i]) {
      values[i] = record.value;
      expiries[i] = record.expiry;
      distances[i] = distance(record.value, references[i]);
      placed_at[i] = now;
      live[i] = true;
      ++epoch;
      if (vacated[i]) {
        ++counters.refills_after_expiry;
        vacated[i] = false;
      } else {
        ++counters.initial_fills;
      }
      return;
    }
    if (values[i] == record.value) {
      if (record.expiry > expiries[i]) {
        expiries[i] = record.expiry;
        ++epoch;
      }
      return;
    }
    const std::uint64_t offered = distance(record.value, references[i]);
    if (offered < distances[i] ||
        (offered == distances[i] && record.expiry > expiries[i])) {
      if (min_dwell > 0.0 && now - placed_at[i] < min_dwell) {
        ++counters.displacements_damped;
        return;
      }
      values[i] = record.value;
      expiries[i] = record.expiry;
      distances[i] = offered;
      placed_at[i] = now;
      ++epoch;
      ++counters.better_displacements;
    }
  }

  void offer(const PseudonymRecord& record, double now) {
    if (!record.valid_at(now)) return;
    for (std::size_t i = 0; i < references.size(); ++i)
      place(i, record, now);
  }

  void purge_expired(double now) {
    for (std::size_t i = 0; i < references.size(); ++i) {
      if (live[i] && !(now < expiries[i])) {
        live[i] = false;
        vacated[i] = true;
        ++epoch;
      }
    }
  }

  std::vector<PseudonymValue> references, values;
  std::vector<double> expiries;
  std::vector<std::uint64_t> distances;
  std::vector<double> placed_at;
  std::vector<bool> live, vacated;
  double min_dwell;
  std::uint64_t epoch = 0;
  SlotSampler::ReplacementCounters counters;
};

// Offers crowd a few values around the slots' own references, so ties
// (equal distance on both sides of R_i), re-offers of a held value
// with a later expiry, expiries mid-stream and damping all happen
// often; every state and counter must match the reference exactly.
TEST(SlotSampler, OfferMatchesReferenceRule) {
  for (const double min_dwell : {0.0, 1.5}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      SlotSampler sampler(16, 64, rng, min_dwell);
      ReferenceSampler reference(sampler.references(), min_dwell);
      const auto& refs = reference.references;

      Rng stream(seed * 977 + static_cast<std::uint64_t>(min_dwell * 10));
      double now = 0.0;
      for (int step = 0; step < 4000; ++step) {
        now += 0.05 * static_cast<double>(stream.uniform_u64(3));
        const PseudonymValue base = refs[stream.uniform_u64(refs.size())];
        const std::uint64_t delta = stream.uniform_u64(4);
        const PseudonymValue value =
            stream.uniform_u64(2) == 0 ? base + delta : base - delta;
        const double expiry =
            now - 0.5 + 0.5 * static_cast<double>(stream.uniform_u64(8));
        const PseudonymRecord record{value, expiry};
        sampler.offer(record, now);
        reference.offer(record, now);
        if (stream.uniform_u64(50) == 0) {
          sampler.purge_expired(now);
          reference.purge_expired(now);
        }

        ASSERT_EQ(sampler.mutation_epoch(), reference.epoch) << "step " << step;
        const auto& got = sampler.counters();
        const auto& want = reference.counters;
        ASSERT_EQ(got.initial_fills, want.initial_fills);
        ASSERT_EQ(got.refills_after_expiry, want.refills_after_expiry);
        ASSERT_EQ(got.better_displacements, want.better_displacements);
        ASSERT_EQ(got.displacements_damped, want.displacements_damped);
        for (std::size_t i = 0; i < refs.size(); ++i) {
          const auto content = sampler.slot(i).second;
          ASSERT_EQ(content.has_value(), static_cast<bool>(reference.live[i]))
              << "slot " << i << " step " << step;
          if (content) {
            ASSERT_EQ(content->value, reference.values[i]);
            ASSERT_EQ(content->expiry, reference.expiries[i]);
          }
        }
      }
      // The stream must have exercised every branch of the rule.
      const auto& c = reference.counters;
      EXPECT_GT(c.refills_after_expiry, 0u);
      EXPECT_GT(c.better_displacements, 0u);
      if (min_dwell > 0.0) {
        EXPECT_GT(c.displacements_damped, 0u);
      }
    }
  }
}

class SamplerSlotSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SamplerSlotSweep, LiveSlotsNeverExceedCapacity) {
  const std::size_t slots = GetParam();
  Rng rng(12 + slots);
  SlotSampler sampler(slots, 64, rng);
  for (int i = 0; i < 200; ++i)
    sampler.offer(rec(rng.next_u64(), 100.0 + i), 0.0);
  EXPECT_LE(sampler.live_values(0.0).size(), slots);
  EXPECT_EQ(sampler.live_slots(0.0), slots);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SamplerSlotSweep,
                         ::testing::Values(1u, 2u, 8u, 50u));

}  // namespace
}  // namespace ppo::overlay
