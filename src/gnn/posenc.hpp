// Sinusoidal positional encoding of skip-connection level differences,
// Eq. (7): gamma(D) = (sin(2^0 pi D'), cos(2^0 pi D'), ..., sin(2^{L-1} pi D'),
// cos(2^{L-1} pi D')).
//
// Fidelity note: applied verbatim to an INTEGER level difference D, every
// sin term is sin(2^l pi D) = 0 and every cos term with l >= 1 is 1, so the
// textbook formula degenerates to a single parity bit. We therefore encode
// the normalized distance D' = min(D, kMaxDistance) / kMaxDistance, which
// keeps the intended behaviour — nearby fanout stems get encodings that
// differ smoothly with distance — while preserving Eq. (7)'s functional form.
//
// The attention aggregator (gnn/aggregators.cpp) is the one reader: it
// builds gamma(0) .. gamma(kMaxPosencDistance) once per layer and looks each
// skip edge's row up by its clamped level difference.
#pragma once

#include "nn/matrix.hpp"

namespace dg::gnn {

/// Distances are clamped to this before normalization.
inline constexpr int kMaxPosencDistance = 64;

/// gamma(D) as a 1 x 2L row.
nn::Matrix positional_encoding(int level_diff, int L);

/// Fill row `row` of `out` (width 2L) with gamma(level_diff).
void write_positional_encoding(nn::Matrix& out, int row, int level_diff, int L);

}  // namespace dg::gnn
