// Shared helpers for the mini NPB kernels.
#pragma once

#include "npb/cost_model.h"
#include "npb/npb.h"

namespace mg::npb::detail {

/// The progress sensor this rank writes: the gauge a monitor registered
/// under progressSensor(b), or nullptr (a rank other than 0, or nobody
/// monitoring). Looked up once per kernel run.
inline obs::Gauge* progressGauge(Benchmark b, const vmpi::Comm& comm, vos::HostContext& ctx) {
  if (comm.rank() != 0) return nullptr;
  return ctx.simulator().metrics().findGauge(progressSensor(b));
}

/// Publish a periodic function of the iteration counter (no-op without a
/// sensor).
inline void publishProgress(obs::Gauge* sensor, int counter) {
  if (sensor != nullptr) sensor->set(static_cast<double>(counter % 8));
}

/// Fill in the common fields of a KernelResult.
inline KernelResult makeResult(Benchmark b, NpbClass cls, const vmpi::Comm& comm) {
  KernelResult r;
  r.benchmark = benchmarkName(b);
  r.npb_class = className(cls);
  r.rank = comm.rank();
  r.nprocs = comm.size();
  return r;
}

/// A 3D slab field with one ghost plane on each z side. Index (x, y, z)
/// with z in [-1, nz_local]; interior z in [0, nz_local).
class SlabField {
 public:
  SlabField(int n, int nz_local)
      : n_(n), nz_(nz_local), data_(static_cast<size_t>(n) * n * (nz_local + 2), 0.0) {}

  double& at(int x, int y, int z) {
    return data_[static_cast<size_t>(z + 1) * n_ * n_ + static_cast<size_t>(y) * n_ +
                 static_cast<size_t>(x)];
  }
  const double& at(int x, int y, int z) const {
    return data_[static_cast<size_t>(z + 1) * n_ * n_ + static_cast<size_t>(y) * n_ +
                 static_cast<size_t>(x)];
  }

  /// Pointer to the start of plane z (n*n doubles).
  double* plane(int z) { return &at(0, 0, z); }
  const double* plane(int z) const { return &at(0, 0, z); }

  int n() const { return n_; }
  int nz() const { return nz_; }
  std::size_t planeBytes() const { return static_cast<size_t>(n_) * n_ * sizeof(double); }

 private:
  int n_;
  int nz_;
  std::vector<double> data_;
};

/// Pack/unpack an x-range [x0, x1) of plane z into a contiguous buffer
/// (used by the chunked wavefront pipelines of LU and BT).
inline void packPlaneRange(const SlabField& f, int z, int x0, int x1,
                           std::vector<double>& out) {
  out.clear();
  for (int y = 0; y < f.n(); ++y) {
    for (int x = x0; x < x1; ++x) out.push_back(f.at(x, y, z));
  }
}

inline void unpackPlaneRange(SlabField& f, int z, int x0, int x1, const std::vector<double>& in) {
  std::size_t i = 0;
  for (int y = 0; y < f.n(); ++y) {
    for (int x = x0; x < x1; ++x) f.at(x, y, z) = in[i++];
  }
}

/// Exchange ghost planes with the z neighbors (non-periodic slab
/// decomposition). `wire_plane_bytes` models the class-sized face.
inline void exchangeHalo(vmpi::Comm& comm, SlabField& f, int tag, std::size_t wire_plane_bytes) {
  const int rank = comm.rank();
  const int p = comm.size();
  const std::size_t bytes = f.planeBytes();
  const int up = rank + 1;
  const int down = rank - 1;
  // Send top plane up / receive bottom ghost, then the reverse, using
  // nonblocking sends to avoid cycles.
  std::vector<vmpi::Request> reqs;
  if (up < p) reqs.push_back(comm.isend(up, tag, f.plane(f.nz() - 1), bytes, wire_plane_bytes));
  if (down >= 0) reqs.push_back(comm.isend(down, tag, f.plane(0), bytes, wire_plane_bytes));
  if (down >= 0) comm.recv(down, tag, f.plane(-1), bytes);
  if (up < p) comm.recv(up, tag, f.plane(f.nz()), bytes);
  comm.waitAll(reqs);
}

}  // namespace mg::npb::detail
