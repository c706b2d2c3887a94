// Disk-backed block store: the I/O half of the §IV-C spill/reload mechanism.
//
// BlockManager decides *which* blocks live on disk; DiskSpillStore actually
// moves the bytes — serializing a block to its own file, dropping the
// in-memory copy, and deserializing it back on reload. Files use the same
// wire format as the PS (ps::ByteWriter/ByteReader), so the deserialization
// cost spill_costs charges is the real code path's cost.
//
// Thread-safe: spill/reload run on executor threads (background reload
// overlaps other jobs' COMP subtasks), so the ledger is guarded by a mutex.
// Distinct blocks never share a file, so the I/O itself needs no lock —
// only the (job, block) -> size ledger and the byte totals do.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <unordered_map>
#include <vector>

#include "check/check.h"
#include "common/sync.h"
#include "harmony/job.h"

namespace harmony::core {

class DiskSpillStore {
 public:
  // Creates `dir` if needed. Blocks are keyed by (job, block index); one
  // file per block so reloads read exactly what they need.
  explicit DiskSpillStore(std::filesystem::path dir);
  ~DiskSpillStore();

  DiskSpillStore(const DiskSpillStore&) = delete;
  DiskSpillStore& operator=(const DiskSpillStore&) = delete;

  // Writes the block to disk (fsync-less; spill is a cache, the in-memory
  // source of truth is dropped by the caller afterwards).
  void spill(JobId job, std::size_t block, std::span<const double> data);

  // Reads a block back; throws if it was never spilled.
  std::vector<double> reload(JobId job, std::size_t block);

  bool contains(JobId job, std::size_t block) const;
  void remove(JobId job, std::size_t block);
  // Drops every block of a job (called when the job finishes or migrates
  // with its input re-read from the original source).
  void remove_job(JobId job);

  std::size_t blocks_on_disk() const;
  std::uint64_t bytes_on_disk() const;
  std::uint64_t bytes_reloaded_total() const;

  const std::filesystem::path& dir() const noexcept { return dir_; }

 private:
  friend void validate_spill_store(const DiskSpillStore&, check::Validation&);

  struct Key {
    JobId job = 0;
    std::size_t block = 0;
    bool operator==(const Key&) const = default;
    // Deterministic ledger-walk order for validators (common::sorted_view).
    bool operator<(const Key& o) const noexcept {
      return job != o.job ? job < o.job : block < o.block;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return std::hash<std::uint64_t>()((static_cast<std::uint64_t>(k.job) << 32) ^ k.block);
    }
  };

  std::filesystem::path path_for(const Key& key) const;

  std::filesystem::path dir_;
  mutable common::Mutex mu_;  // guards the ledger below
  // Payload bytes per block.
  std::unordered_map<Key, std::uint64_t, KeyHash> sizes_ GUARDED_BY(mu_);
  std::uint64_t bytes_on_disk_ GUARDED_BY(mu_) = 0;
  std::uint64_t spilled_total_ GUARDED_BY(mu_) = 0;
  std::uint64_t reloaded_total_ GUARDED_BY(mu_) = 0;
};

}  // namespace harmony::core
