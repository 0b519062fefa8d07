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

void InvariantChecker::check_cluster_consistent(
    const char* tag, ProcId p, Round r, Estimate v,
    std::map<std::pair<Round, ClusterId>, Estimate>& seen) {
  const ClusterId x = layout_.cluster_of(p);
  const auto key = std::make_pair(r, x);
  const auto it = seen.find(key);
  if (it == seen.end()) {
    seen.emplace(key, v);
  } else if (it->second != v) {
    std::ostringstream os;
    os << tag << " cluster-inconsistency: p" << p << " in P[" << x
       << "] has " << v << " but cluster already agreed " << it->second
       << " at round " << r;
    violate(os.str());
  }
}

void InvariantChecker::on_est1(ProcId p, Round r, Estimate v) {
  if (!is_binary(v)) {
    std::ostringstream os;
    os << "est1 of p" << p << " at round " << r << " is ⊥";
    violate(os.str());
  }
  check_cluster_consistent("est1", p, r, v, est1_by_cluster_);
}

void InvariantChecker::on_est2(ProcId p, Round r, Estimate v) {
  check_cluster_consistent("est2", p, r, v, est2_by_cluster_);
  if (!is_binary(v)) return;
  // WA1: all non-⊥ est2 values of a round are equal.
  const auto it = est2_nonbot_.find(r);
  if (it == est2_nonbot_.end()) {
    est2_nonbot_.emplace(r, v);
  } else if (it->second != v) {
    std::ostringstream os;
    os << "WA1 violated at round " << r << ": est2 values " << it->second
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
  if (singleton_value && rec_singleton_bot_.count(r) > 0) {
    std::ostringstream os;
    os << "WA2 violated at round " << r << ": p" << p
       << " has rec={v} while p" << rec_singleton_bot_.at(r)
       << " has rec={⊥}";
    violate(os.str());
  }
  if (singleton_bot && rec_singleton_value_.count(r) > 0) {
    std::ostringstream os;
    os << "WA2 violated at round " << r << ": p"
       << rec_singleton_value_.at(r) << " has rec={v} while p" << p
       << " has rec={⊥}";
    violate(os.str());
  }
  if (singleton_value) rec_singleton_value_.emplace(r, p);
  if (singleton_bot) rec_singleton_bot_.emplace(r, p);
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
