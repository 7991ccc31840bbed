#include "core/bilinear.hpp"

namespace rla::bilinear {

using enum Slot;

// Strassen (Fig. 1(b)). P5's A-operand is A11 + A12: the SPAA'99 scan prints
// "S3 = A11 - A12", which contradicts its own post-additions C12 = P3 + P5
// and C11 = ... - P5 ...; the + sign is the classical one.
constexpr Row kStrassen = complete({
    .a = {A11 + A22, A21 + A22, A11, A22, A11 + A12, A21 - A11, A12 - A22},
    .b = {B11 + B22, B11, B12 - B22, B21 - B11, B22, B11 + B12, B21 + B22},
    .c = {P1 + P4 - P5 + P7, P3 + P5, P2 + P4, P1 + P3 - P2 + P6},
});

// Winograd's variant (Fig. 1(c)). The pre-additions chain on earlier sums
// (S2 = S1 - A11, S4 = A12 - S2 and likewise T2, T4), so each side runs its
// chain in one task beside the independent S3/T3. The post-additions reuse
// the U-chain U2 = P1 + P4, U3 = U2 + P5, accumulated in place into P4 and
// P5 (every P temporary has the same orientation, so the aliased
// elementwise updates are safe), before the three quadrants that read them.
// The expanded c lists serve the low-memory schedule, which has a single P
// buffer and so cannot keep the U-chain.
constexpr Row kWinograd = complete({
    .a = {A11, A12, A21 + A22, A21 + A22 - A11, A11 - A21,
          A12 - A21 - A22 + A11, A22},
    .b = {B11, B21, B12 - B11, B22 - B12 + B11, B22 - B12, B22,
          B21 - B22 + B12 - B11},
    .c = {P1 + P2, P1 + P3 + P4 + P6, P1 + P4 + P5 + P7, P1 + P3 + P4 + P5},
    .pre = {{
        {set(S1, A21 + A22), set(S2, S1 - A11), set(S4, A12 - S2)},
        {set(S3, A11 - A21)},
        {set(T1, B12 - B11), set(T2, B22 - T1), set(T4, B21 - T2)},
        {set(T3, B22 - B12)},
    }},
    .post = {
        {{acc(C11, P1 + P2)}, {acc(P4, P1), acc(P5, P4)}},
        {{acc(C21, P5 + P7)}, {acc(C22, P5 + P3)}, {acc(C12, P4 + P3 + P6)}},
    },
});

static_assert(well_formed(kStrassen) && well_formed(kWinograd));

const Row* row_for(Algorithm alg) noexcept {
  switch (alg) {
    case Algorithm::Strassen:
      return &kStrassen;
    case Algorithm::Winograd:
      return &kWinograd;
    case Algorithm::Standard:
      break;
  }
  return nullptr;
}

}  // namespace rla::bilinear
