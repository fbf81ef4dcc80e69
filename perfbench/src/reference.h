/**
 * @file
 * Independent output check: reference SCN scorers that read the
 * ModelBundle weights directly (never nn::Executor), and a top-K
 * comparison that tolerates score rounding and ties at the k-th place.
 */

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/topk.h"
#include "nn/serialize.h"

namespace perfbench {

/** Largest |engine score - reference score| the check accepts. */
constexpr double kScoreTolerance = 1e-5;

/**
 * Scores (query, feature) pairs in double precision for the two SCN
 * shapes the benchmark loads:
 *  - a single DotProduct fuse: sigmoid(q . d);
 *  - a Multiply fuse, FC + activation, then a linear FC whose outputs
 *    are averaged: sigmoid(mean(W2 act(W1 (q*d) + b1) + b2)). The
 *    mean of a linear layer is folded into one weight vector, and the
 *    query into the first layer's columns.
 * Any other shape is rejected at construction.
 */
class ReferenceScorer
{
  public:
    explicit ReferenceScorer(const deepstore::nn::ModelBundle &bundle);

    /** Bind the query; later score() calls compare against it. */
    void setQuery(const std::vector<float> &query);

    /** Score every feature of a row-major [count x dim] block. */
    std::vector<double> scoreAll(const std::vector<float> &features,
                                 std::uint64_t count) const;

  private:
    double score(const float *feature) const;

    bool dot_ = false;
    std::size_t dim_ = 0;
    std::size_t hidden_ = 0;
    bool hiddenRelu_ = false;
    std::vector<double> query_; ///< dot fuse only
    std::vector<double> w1_;   ///< [hidden x dim]
    std::vector<double> w1q_;  ///< w1_ with the query folded in
    std::vector<double> b1_;   ///< [hidden]
    std::vector<double> w2bar_; ///< [hidden], mean over W2's rows
    double b2bar_ = 0.0;
};

/**
 * Check a returned top-K against reference scores for the features
 * the query covered. A full scan must return min(k, n) entries, best
 * first, whose scores match the reference within kScoreTolerance and
 * whose ids are exactly the reference top-K, except that ids whose
 * reference scores tie (within the tolerance) with the k-th best may
 * stand in for each other. A Query Cache hit only rescored a cached
 * candidate list, so for it each returned id's score must match.
 * @return an empty string when the result passes, else the reason.
 */
std::string checkTopK(const std::vector<double> &reference,
                      const std::vector<deepstore::core::ScoredResult>
                          &topk,
                      std::size_t k, bool cache_hit);

/** Reference score gap between the k-th and (k+1)-th best features
 *  (0 when there are at most k features). */
double kthGap(std::vector<double> reference, std::size_t k);

/** Feed the check known-good and corrupted top-K lists. @return an
 *  empty string when it accepts the good list and flags every
 *  corruption, else what went wrong. */
std::string checkSelfTest();

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
