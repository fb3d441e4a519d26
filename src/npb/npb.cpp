#include "npb/npb.h"

#include <algorithm>

#include "util/error.h"
#include "util/strings.h"

namespace mg::npb {

NpbClass classFromString(const std::string& s) {
  const std::string t = util::toLower(s);
  if (t == "s" || t == "classs" || t == "class_s") return NpbClass::S;
  if (t == "a" || t == "classa" || t == "class_a") return NpbClass::A;
  throw mg::ParseError("unknown NPB class '" + s + "' (supported: S, A)");
}

std::string className(NpbClass c) { return c == NpbClass::S ? "S" : "A"; }

Benchmark benchmarkFromString(const std::string& s) {
  const std::string t = util::toLower(s);
  if (t == "ep") return Benchmark::EP;
  if (t == "is") return Benchmark::IS;
  if (t == "mg") return Benchmark::MG;
  if (t == "lu") return Benchmark::LU;
  if (t == "bt") return Benchmark::BT;
  throw mg::ParseError("unknown NPB benchmark '" + s + "'");
}

std::string benchmarkName(Benchmark b) {
  switch (b) {
    case Benchmark::EP: return "EP";
    case Benchmark::IS: return "IS";
    case Benchmark::MG: return "MG";
    case Benchmark::LU: return "LU";
    case Benchmark::BT: return "BT";
  }
  return "?";
}

KernelResult runBenchmark(Benchmark b, vmpi::Comm& comm, vos::HostContext& ctx, NpbClass cls) {
  switch (b) {
    case Benchmark::EP: return runEp(comm, ctx, cls);
    case Benchmark::IS: return runIs(comm, ctx, cls);
    case Benchmark::MG: return runMg(comm, ctx, cls);
    case Benchmark::LU: return runLu(comm, ctx, cls);
    case Benchmark::BT: return runBt(comm, ctx, cls);
  }
  throw mg::UsageError("unknown benchmark");
}

double ResultSink::maxSeconds() const {
  double m = 0;
  for (const auto& r : results_) m = std::max(m, r.seconds);
  return m;
}

bool ResultSink::allVerified() const {
  if (results_.empty()) return false;
  return std::all_of(results_.begin(), results_.end(),
                     [](const KernelResult& r) { return r.verified; });
}

std::string progressSensor(Benchmark b) {
  return util::format("npb.sensor.%s.progress", benchmarkName(b).c_str());
}

void registerNpb(grid::ExecutableRegistry& registry, ResultSink& sink) {
  for (Benchmark b :
       {Benchmark::EP, Benchmark::IS, Benchmark::MG, Benchmark::LU, Benchmark::BT}) {
    registry.add("npb." + util::toLower(benchmarkName(b)),
                 [b, &sink](grid::JobContext& jc) {
                   const NpbClass cls = classFromString(jc.args.empty() ? "S" : jc.args[0]);
                   auto comm = vmpi::Comm::init(jc);
                   KernelResult r = runBenchmark(b, *comm, jc.os, cls);
                   sink.record(r);
                   comm->finalize();
                   return r.verified ? 0 : 1;
                 });
  }
}

}  // namespace mg::npb
