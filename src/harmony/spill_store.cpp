#include "harmony/spill_store.h"

#include <fstream>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "ps/serialization.h"

namespace harmony::core {

DiskSpillStore::DiskSpillStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

DiskSpillStore::~DiskSpillStore() {
  // Spill files are pure cache: clean up on teardown. Locked even though the
  // destructor must be externally quiesced — it keeps the analysis airtight.
  std::error_code ec;
  common::MutexLock lock(mu_);
  // detlint: sorted-iteration(teardown only removes files; deletion order is unobservable)
  for (const auto& [key, size] : sizes_) std::filesystem::remove(path_for(key), ec);
}

std::filesystem::path DiskSpillStore::path_for(const Key& key) const {
  return dir_ / ("job-" + std::to_string(key.job) + "-block-" + std::to_string(key.block) +
                 ".spill");
}

void DiskSpillStore::spill(JobId job, std::size_t block, std::span<const double> data) {
  const Key key{job, block};
  ps::ByteWriter writer;
  writer.put_u32(job);
  writer.put_u64(block);
  writer.put_doubles(data);

  const auto path = path_for(key);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("DiskSpillStore: cannot open " + path.string());
    const auto& buf = writer.buffer();
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    if (!out) throw std::runtime_error("DiskSpillStore: write failed: " + path.string());
  }

  const auto payload = static_cast<std::uint64_t>(data.size() * sizeof(double));
  {
    common::MutexLock lock(mu_);
    auto [it, inserted] = sizes_.try_emplace(key, payload);
    if (!inserted) {
      bytes_on_disk_ -= it->second;
      it->second = payload;
    }
    bytes_on_disk_ += payload;
    spilled_total_ += payload;
  }
  obs::MetricsRegistry::instance().counter("spill.disk_bytes_written").add(payload);
  if (obs::Tracer::enabled())
    obs::Tracer::instant(obs::EventKind::kSpill, obs::ClockDomain::kWall,
                         obs::Tracer::wall_now_us(), job, obs::kNoEntity, obs::kNoEntity,
                         payload);
}

std::vector<double> DiskSpillStore::reload(JobId job, std::size_t block) {
  const Key key{job, block};
  {
    common::MutexLock lock(mu_);
    if (!sizes_.contains(key))
      throw std::runtime_error("DiskSpillStore: block was never spilled");
  }

  const auto path = path_for(key);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("DiskSpillStore: cannot open " + path.string());
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0);
  std::vector<std::byte> buf(size);
  in.read(reinterpret_cast<char*>(buf.data()), static_cast<std::streamsize>(size));
  if (!in) throw std::runtime_error("DiskSpillStore: read failed: " + path.string());

  ps::ByteReader reader(buf);
  if (reader.get_u32() != job || reader.get_u64() != block)
    throw std::runtime_error("DiskSpillStore: block header mismatch");
  auto data = reader.get_doubles();
  const auto payload = static_cast<std::uint64_t>(data.size() * sizeof(double));
  {
    common::MutexLock lock(mu_);
    reloaded_total_ += payload;
  }
  obs::MetricsRegistry::instance().counter("spill.disk_bytes_reloaded").add(payload);
  if (obs::Tracer::enabled())
    obs::Tracer::instant(obs::EventKind::kReload, obs::ClockDomain::kWall,
                         obs::Tracer::wall_now_us(), job, obs::kNoEntity, obs::kNoEntity,
                         payload);
  return data;
}

bool DiskSpillStore::contains(JobId job, std::size_t block) const {
  common::MutexLock lock(mu_);
  return sizes_.contains(Key{job, block});
}

void DiskSpillStore::remove(JobId job, std::size_t block) {
  const Key key{job, block};
  {
    common::MutexLock lock(mu_);
    auto it = sizes_.find(key);
    if (it == sizes_.end()) return;
    bytes_on_disk_ -= it->second;
    sizes_.erase(it);
  }
  std::error_code ec;
  std::filesystem::remove(path_for(key), ec);
}

void DiskSpillStore::remove_job(JobId job) {
  std::vector<Key> dropped;
  {
    common::MutexLock lock(mu_);
    // detlint: sorted-iteration(erase-walk; dropped blocks only feed file removal, order unobservable)
    for (auto it = sizes_.begin(); it != sizes_.end();) {
      if (it->first.job == job) {
        bytes_on_disk_ -= it->second;
        dropped.push_back(it->first);
        it = sizes_.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::error_code ec;
  for (const Key& key : dropped) std::filesystem::remove(path_for(key), ec);
}

std::size_t DiskSpillStore::blocks_on_disk() const {
  common::MutexLock lock(mu_);
  return sizes_.size();
}

std::uint64_t DiskSpillStore::bytes_on_disk() const {
  common::MutexLock lock(mu_);
  return bytes_on_disk_;
}

std::uint64_t DiskSpillStore::bytes_reloaded_total() const {
  common::MutexLock lock(mu_);
  return reloaded_total_;
}

}  // namespace harmony::core
