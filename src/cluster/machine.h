// Machine and cluster hardware description.
//
// Defaults mirror the paper's testbed: m4.2xlarge instances with 8 vCPUs,
// 32 GB of memory and a 1.1 Gbps NIC (§V-B). Each instance co-locates one
// server and one worker; one extra instance runs the master.
#pragma once

namespace harmony::cluster {

constexpr double kKiB = 1024.0;
constexpr double kMiB = 1024.0 * kKiB;
constexpr double kGiB = 1024.0 * kMiB;

struct MachineSpec {
  int cores = 8;
  double memory_bytes = 32.0 * kGiB;
  // 1.1 Gbps expressed in bytes/second.
  double nic_bytes_per_sec = 1.1e9 / 8.0;
  // EBS-style volume; bounds how fast spilled input blocks can be reloaded.
  double disk_bytes_per_sec = 160.0 * kMiB;

  bool operator==(const MachineSpec&) const = default;
};

}  // namespace harmony::cluster
