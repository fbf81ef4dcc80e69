/**
 * @file
 * The per-ISA instantiations of nn::Executor's scoring kernel. Every
 * caller outside src/nn goes through Executor, which picks one per
 * CPU in its constructor; tests and benches include this header to
 * check or time each instantiation on its own.
 *
 * Both run the same forward template over blocks of
 * Executor::kLanes features and one lane at a time for the rest. They
 * differ only in how a block is held in registers: two 16-byte
 * vectors at the build's default target, one 32-byte vector in the
 * AVX2 instantiation (compiled without FMA). Each lane does the
 * scalar mul-then-add sequence, so both give the same bytes as
 * Executor::score() on every feature.
 */

#ifndef DEEPSTORE_NN_SCORE_KERNELS_H
#define DEEPSTORE_NN_SCORE_KERNELS_H

#include <cstddef>

#include "nn/model.h"
#include "nn/weights.h"

namespace deepstore::nn::kernels {

/**
 * Score `n` database features (row-major, featureDim() floats each)
 * against the query `q` into scores[0, n), as Executor::scoreBatch
 * does; sizes are the caller's to check.
 */
using ScoreFn = void (*)(const Model &model, const ModelWeights &weights,
                         const float *q, const float *dfvs,
                         std::size_t n, float *scores);

/** Lane block as two 16-byte vectors, at the default target. */
void scoreBaseline(const Model &model, const ModelWeights &weights,
                   const float *q, const float *dfvs, std::size_t n,
                   float *scores);

/** Lane block as one 32-byte vector, AVX2 code; call it only when
 *  hasAvx2(). */
void scoreAvx2(const Model &model, const ModelWeights &weights,
               const float *q, const float *dfvs, std::size_t n,
               float *scores);

/** Whether this CPU runs scoreAvx2(). */
bool hasAvx2();

} // namespace deepstore::nn::kernels

#endif // DEEPSTORE_NN_SCORE_KERNELS_H
