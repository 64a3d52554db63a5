#include "admission/pipeline.h"

#include <utility>

#include "core/fingerprint.h"
#include "io/admission_io.h"
#include "multicore/partitioned_admission.h"
#include "runner/runner.h"

namespace lpfps::admission {

SessionResult run_session(const SessionSpec& spec) {
  const ChurnStream stream = make_churn_stream(spec.churn, spec.seed);
  AdmissionService service(stream.initial, spec.service);

  SessionResult result;
  std::uint64_t digest = core::kFnvOffsetBasis;
  for (const ChurnOp& op : stream.ops) {
    const std::optional<Request> request = resolve(op, service.tasks());
    if (!request.has_value()) {
      ++result.skipped;
      continue;
    }
    const Decision decision = service.handle(*request);
    ++result.requests;
    if (decision.admitted) {
      ++result.admitted;
    } else {
      ++result.rejected;
    }
    digest = core::fnv1a(io::admission_csv_row(decision), digest);
  }
  result.decision_digest = digest;
  result.final_fingerprint = service.fingerprint();
  result.stats = service.stats();
  result.rta = service.rta_stats();
  return result;
}

std::vector<SessionResult> run_sessions(
    const std::vector<SessionSpec>& specs, std::size_t threads) {
  return runner::run_batch(
      specs.size(),
      [&specs](std::size_t i) { return run_session(specs[i]); }, threads);
}

MulticoreSessionResult run_multicore_session(
    const MulticoreSessionSpec& spec) {
  const ChurnStream stream = make_churn_stream(spec.churn, spec.seed);
  multicore::PartitionedAdmission admission(spec.cores, spec.scratch);

  // The global view every op resolves against, plus where each of its
  // tasks currently lives: (core, index within that core).  Removal on
  // a core shifts that core's higher indices down (TaskSet::remove
  // semantics), mirrored here.
  sched::TaskSet view;
  std::vector<std::pair<int, TaskIndex>> locs;

  MulticoreSessionResult result;
  core::FnvHasher digest;
  const auto place = [&](const sched::Task& task) {
    const int core = admission.try_add(task);
    if (core >= 0) {
      view.add(task);
      locs.emplace_back(
          core,
          static_cast<TaskIndex>(admission.core(core).tasks().size()) - 1);
    }
    return core;
  };
  // Seed the cores with the stream's initial set, first-fit in index
  // order (tasks that fit nowhere are dropped — deterministically, so
  // both arms start from the identical placement).
  for (const sched::Task& task : stream.initial.tasks()) place(task);

  for (const ChurnOp& op : stream.ops) {
    const std::optional<Request> request = resolve(op, view);
    if (!request.has_value() || request->kind == RequestKind::kMutate) {
      ++result.skipped;
      continue;
    }
    ++result.requests;
    int core = -1;
    bool admitted = false;
    if (request->kind == RequestKind::kAdd) {
      core = place(request->task);
      admitted = core >= 0;
    } else {
      const std::size_t i = static_cast<std::size_t>(request->index);
      const auto [home, index_in_core] = locs[i];
      admission.remove(home, index_in_core);
      view.remove(request->index);
      locs.erase(locs.begin() + static_cast<std::ptrdiff_t>(i));
      for (auto& [other_core, other_index] : locs) {
        if (other_core == home && other_index > index_in_core) {
          --other_index;
        }
      }
      core = home;
      admitted = true;  // Departures are always granted.
    }
    if (admitted) {
      ++result.admitted;
    } else {
      ++result.rejected;
    }
    digest.mix(static_cast<std::int32_t>(request->kind));
    digest.mix(static_cast<std::uint64_t>(admitted ? 1 : 0));
    digest.mix(static_cast<std::int32_t>(core));
    digest.mix(admission.fingerprint());
  }
  result.decision_digest = digest.digest();
  result.final_fingerprint = admission.fingerprint();
  result.rta = admission.rta_stats();
  return result;
}

std::vector<MulticoreSessionResult> run_multicore_sessions(
    const std::vector<MulticoreSessionSpec>& specs, std::size_t threads) {
  return runner::run_batch(
      specs.size(),
      [&specs](std::size_t i) { return run_multicore_session(specs[i]); },
      threads);
}

}  // namespace lpfps::admission
