#include "privacylink/pseudonym.hpp"

#include "common/check.hpp"

namespace ppo::privacylink {

PseudonymValue random_pseudonym_value(Rng& rng, unsigned bits) {
  PPO_CHECK_MSG(bits >= 8 && bits <= 64, "pseudonym width must be 8..64 bits");
  const std::uint64_t raw = rng.next_u64();
  if (bits == 64) return raw;
  return raw >> (64 - bits);
}

}  // namespace ppo::privacylink
