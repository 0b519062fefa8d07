#include "core/invariant_checker.h"

#include <algorithm>
#include <sstream>

#include "util/assert.h"
#include "util/log.h"

namespace hyco {

InvariantChecker::InvariantChecker(const ClusterLayout& layout)
    : layout_(layout) {}

void InvariantChecker::set_inputs(const std::vector<Estimate>& inputs) {
  HYCO_CHECK_MSG(inputs.size() == static_cast<std::size_t>(layout_.n()),
                 "inputs size mismatch");
  for (const Estimate e : inputs) {
    HYCO_CHECK_MSG(is_binary(e), "proposals must be binary");
  }
  inputs_ = inputs;
}

void InvariantChecker::violate(const std::string& what) {
  HYCO_ERROR("invariant violation: " << what);
  violations_.push_back(what);
}

InvariantChecker::ClusterRound& InvariantChecker::cluster_round(ProcId p,
                                                                Round r) {
  HYCO_CHECK_MSG(r >= 1, "rounds start at 1, got " << r);
  const auto m = static_cast<std::size_t>(layout_.m());
  const auto row = static_cast<std::size_t>(r - 1) * m;
  if (row >= by_cluster_.size()) {
    if (by_cluster_.capacity() == 0) by_cluster_.reserve(kFirstRounds * m);
    by_cluster_.resize(row + m);
  }
  return by_cluster_[row + static_cast<std::size_t>(layout_.cluster_of(p))];
}

InvariantChecker::RoundRecord& InvariantChecker::round_record(Round r) {
  HYCO_CHECK_MSG(r >= 1, "rounds start at 1, got " << r);
  const auto i = static_cast<std::size_t>(r - 1);
  if (i >= by_round_.size()) {
    if (by_round_.capacity() == 0) by_round_.reserve(kFirstRounds);
    by_round_.resize(i + 1);
  }
  return by_round_[i];
}

void InvariantChecker::check_cluster_consistent(const char* tag, ProcId p,
                                                Round r, Estimate v,
                                                Estimate& agreed) {
  if (agreed == kUnset) {
    agreed = v;
  } else if (agreed != v) {
    std::ostringstream os;
    os << tag << " cluster-inconsistency: p" << p << " in P["
       << layout_.cluster_of(p) << "] has " << v
       << " but cluster already agreed " << agreed << " at round " << r;
    violate(os.str());
  }
}

void InvariantChecker::on_est1(ProcId p, Round r, Estimate v) {
  if (!is_binary(v)) {
    std::ostringstream os;
    os << "est1 of p" << p << " at round " << r << " is ⊥";
    violate(os.str());
  }
  check_cluster_consistent("est1", p, r, v, cluster_round(p, r).est1);
}

void InvariantChecker::on_est2(ProcId p, Round r, Estimate v) {
  check_cluster_consistent("est2", p, r, v, cluster_round(p, r).est2);
  if (!is_binary(v)) return;
  // WA1: all non-⊥ est2 values of a round are equal.
  Estimate& witness = round_record(r).est2_nonbot;
  if (witness == kUnset) {
    witness = v;
  } else if (witness != v) {
    std::ostringstream os;
    os << "WA1 violated at round " << r << ": est2 values " << witness
       << " and " << v << " (p" << p << ')';
    violate(os.str());
  }
}

void InvariantChecker::on_rec(ProcId p, Round r, EstimateSet rec) {
  const bool has0 = contains(rec, Estimate::Zero);
  const bool has1 = contains(rec, Estimate::One);
  const bool hasb = contains(rec, Estimate::Bot);
  if (has0 && has1) {
    std::ostringstream os;
    os << "rec of p" << p << " at round " << r
       << " contains both 0 and 1 (WA1 consequence violated)";
    violate(os.str());
  }
  if (rec == 0) {
    std::ostringstream os;
    os << "rec of p" << p << " at round " << r << " is empty";
    violate(os.str());
  }
  const bool singleton_value = (has0 || has1) && !hasb;
  const bool singleton_bot = hasb && !has0 && !has1;
  // WA2: {v} and {⊥} mutually exclusive within a round. Report once, at the
  // moment the conflicting singleton appears.
  RoundRecord& rr = round_record(r);
  if (singleton_value && rr.rec_bot != kNoProc) {
    std::ostringstream os;
    os << "WA2 violated at round " << r << ": p" << p
       << " has rec={v} while p" << rr.rec_bot << " has rec={⊥}";
    violate(os.str());
  }
  if (singleton_bot && rr.rec_value != kNoProc) {
    std::ostringstream os;
    os << "WA2 violated at round " << r << ": p" << rr.rec_value
       << " has rec={v} while p" << p << " has rec={⊥}";
    violate(os.str());
  }
  if (singleton_value && rr.rec_value == kNoProc) rr.rec_value = p;
  if (singleton_bot && rr.rec_bot == kNoProc) rr.rec_bot = p;
}

void InvariantChecker::on_decide(ProcId p, Round r, Estimate v) {
  if (!is_binary(v)) {
    std::ostringstream os;
    os << "p" << p << " decided ⊥ at round " << r;
    violate(os.str());
    return;
  }
  if (!decided_.has_value()) {
    decided_ = v;
  } else if (*decided_ != v) {
    std::ostringstream os;
    os << "AGREEMENT violated: p" << p << " decided " << v
       << " but an earlier decision was " << *decided_;
    violate(os.str());
  }
  if (!inputs_.empty()) {
    const bool proposed =
        std::find(inputs_.begin(), inputs_.end(), v) != inputs_.end();
    if (!proposed) {
      std::ostringstream os;
      os << "VALIDITY violated: decided " << v << " was never proposed";
      violate(os.str());
    }
  }
}

}  // namespace hyco
