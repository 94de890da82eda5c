#include "core/decay_schedule.hpp"

#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace dualcast {

int schedule_chunk_width(int ladder) {
  DC_EXPECTS(ladder >= 1);
  // Enough bits to cover [0, ladder); mod below fixes non-powers of two
  // (the slight non-uniformity is irrelevant to the adversary-independence
  // argument: the index depends on the shared bits only, never on the
  // adversary's choices).
  return clog2(static_cast<std::uint64_t>(ladder) + 1);
}

int fixed_decay_index(int round, int ladder) {
  DC_EXPECTS(round >= 0);
  DC_EXPECTS(ladder >= 1);
  return 1 + (round % ladder);
}

int permuted_decay_index(const BitString& bits, int round, int ladder) {
  DC_EXPECTS(round >= 0);
  DC_EXPECTS(ladder >= 1);
  DC_EXPECTS_MSG(!bits.empty(), "permuted decay requires shared bits");
  const int width = schedule_chunk_width(ladder);
  const std::uint64_t chunk = bits.chunk_cyclic(
      static_cast<std::size_t>(round) * static_cast<std::size_t>(width), width);
  return 1 + static_cast<int>(chunk % static_cast<std::uint64_t>(ladder));
}

double fixed_decay_probability(int round, int ladder) {
  return pow2_neg(fixed_decay_index(round, ladder));
}

}  // namespace dualcast
