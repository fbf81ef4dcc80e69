/**
 * @file
 * Reference (functional) executor for SCN/QCN models.
 *
 * This is the ground-truth math: examples use it to produce real
 * similarity scores, the test suite uses it to cross-check the layer
 * shape arithmetic, the scan path scores every feature through it and
 * the Query Cache uses it for QCN scoring.
 *
 * One forward kernel serves every entry point. It evaluates a block of
 * L features side by side in lane layout (value i of lane f at
 * x[i * L + f]); run() and score() are its one-lane case and
 * scoreBatch() its L-lane case. The constructor picks the kernel's
 * AVX2 instantiation when the CPU has AVX2 and the default-target one
 * otherwise (nn/score_kernels.h). Each FC output accumulates in
 * the scalar order — bias first, then inputs 0 ... n_in - 1 — so a
 * feature scores bit-identically whichever entry point or lane it
 * goes through. The paper's accelerator maps one (query, feature)
 * pair at a time onto the systolic array (§4.5); that is modelled by
 * the timing code, not here.
 */

#ifndef DEEPSTORE_NN_EXECUTOR_H
#define DEEPSTORE_NN_EXECUTOR_H

#include <cstddef>
#include <vector>

#include "nn/model.h"
#include "nn/weights.h"

namespace deepstore::nn {

/** Evaluates a Model functionally on (QFV, DFV) pairs. */
class Executor
{
  public:
    /** Features scoreBatch() evaluates side by side. */
    static constexpr std::size_t kLanes = 8;

    /** Bind an executor to a validated model and matching weights. */
    Executor(const Model &model, const ModelWeights &weights);

    /**
     * Run the full pipeline on one (query, database) feature pair.
     * @return the raw output vector of the last layer.
     */
    std::vector<float> run(const std::vector<float> &qfv,
                           const std::vector<float> &dfv) const;

    /**
     * Similarity score in [0, 1]: sigmoid of a 1-d output, softmax
     * "match" probability (index 1) of a 2-d output, and sigmoid of
     * the mean otherwise.
     */
    float score(const std::vector<float> &qfv,
                const std::vector<float> &dfv) const;

    /**
     * Score `n` database features against one query: `dfvs` holds
     * them row-major (`n` x featureDim()), and scores[j] receives
     * the score of row j, bit-identical to score(qfv, row j).
     */
    void scoreBatch(const std::vector<float> &qfv, const float *dfvs,
                    std::size_t n, float *scores) const;

    /** Collapse a raw output vector to a score as described above. */
    static float scoreFromOutput(const std::vector<float> &out);

    const Model &model() const { return model_; }

  private:
    void checkSizes(const std::vector<float> &qfv,
                    std::size_t dfv_size) const;

    const Model &model_;
    const ModelWeights &weights_;
    /** The scoring kernel for this CPU (nn/score_kernels.h). */
    void (*kernel_)(const Model &, const ModelWeights &, const float *,
                    const float *, std::size_t, float *);
};

} // namespace deepstore::nn

#endif // DEEPSTORE_NN_EXECUTOR_H
