// The system under test, as users deploy it: every compliance feature on
// (access control, audit, strict deletion, at-rest encryption, metadata
// indexes), an everysec durable log and a durable audit chain, all files in
// one data directory.

#pragma once

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <string>

#include "cluster/cluster_store.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"

namespace perfbench {

enum class Backend { kKv, kCluster, kRel };

inline gdpr::ComplianceFlags FullCompliance() {
  gdpr::ComplianceFlags f;
  f.enforce_access_control = true;
  f.audit_enabled = true;
  f.strict_timely_deletion = true;
  f.encrypt_at_rest = true;
  f.metadata_indexing = true;
  return f;
}

constexpr size_t kClusterNodes = 2;

class System {
 public:
  System(Backend backend, std::string dir)
      : backend_(backend), dir_(std::move(dir)) {}
  ~System() { Close().ok(); }

  Backend backend() const { return backend_; }
  const std::string& dir() const { return dir_; }
  std::string AofPath() const { return dir_ + "/store.aof"; }
  std::string WalPath() const { return dir_ + "/store.wal"; }

  gdpr::Status Open() {
    gdpr::Status s;
    switch (backend_) {
      case Backend::kKv: {
        gdpr::KvGdprOptions o;
        o.compliance = FullCompliance();
        o.kv.aof_enabled = true;
        o.kv.aof_path = AofPath();
        o.kv.sync_policy = gdpr::SyncPolicy::kEverySec;
        o.audit.path = dir_ + "/audit";
        kv_ = std::make_unique<gdpr::KvGdprStore>(o);
        s = kv_->Open();
        if (s.ok()) kv_->raw()->StartExpiryCron();
        break;
      }
      case Backend::kCluster: {
        gdpr::cluster::ClusterOptions o;
        o.nodes = kClusterNodes;
        o.transport = gdpr::cluster::ClusterTransport::kLoopbackSocket;
        o.compliance = FullCompliance();
        o.kv.aof_enabled = true;
        o.kv.aof_path = AofPath();
        o.kv.sync_policy = gdpr::SyncPolicy::kEverySec;
        o.audit.path = dir_ + "/audit";
        cluster_ = std::make_unique<gdpr::cluster::ClusterGdprStore>(o);
        s = cluster_->Open();
        if (s.ok()) {
          for (size_t i = 0; i < cluster_->node_count(); ++i) {
            cluster_->node(i)->raw()->StartExpiryCron();
          }
        }
        break;
      }
      case Backend::kRel: {
        gdpr::RelGdprOptions o;
        o.compliance = FullCompliance();
        o.rel.wal_enabled = true;
        o.rel.wal_path = WalPath();
        o.rel.log_statements = true;
        o.rel.statement_log_path = dir_ + "/stmt.log";
        o.rel.sync_policy = gdpr::SyncPolicy::kEverySec;
        o.audit.path = dir_ + "/audit";
        rel_ = std::make_unique<gdpr::RelGdprStore>(o);
        s = rel_->Open();
        break;
      }
    }
    return s;
  }

  gdpr::Status Close() {
    gdpr::Status s;
    if (kv_) {
      kv_->raw()->StopExpiryCron();
      s = kv_->Close();
      kv_.reset();
    }
    if (cluster_) {
      for (size_t i = 0; i < cluster_->node_count(); ++i) {
        cluster_->node(i)->raw()->StopExpiryCron();
      }
      s = cluster_->Close();
      cluster_.reset();
    }
    if (rel_) {
      s = rel_->Close();
      rel_.reset();
    }
    return s;
  }

  gdpr::GdprStore* store() {
    if (kv_) return kv_.get();
    if (cluster_) return cluster_.get();
    return rel_.get();
  }
  gdpr::KvGdprStore* kv() { return kv_.get(); }
  gdpr::cluster::ClusterGdprStore* cluster() { return cluster_.get(); }

  // Audit entries one call adds: a call the router fans out is audited
  // once on every node's chain.
  size_t FanoutCost() const {
    return backend_ == Backend::kCluster ? kClusterNodes : 1;
  }

  // Entries on every chain of the store.
  size_t AuditEntries() {
    if (!cluster_) return store()->audit_log()->size();
    size_t n = cluster_->audit_log()->size();
    for (size_t i = 0; i < cluster_->node_count(); ++i) {
      n += cluster_->node(i)->audit_log()->size();
    }
    return n;
  }
  bool VerifyAudit() {
    if (cluster_) return cluster_->VerifyAuditChains();
    return store()->audit_log()->VerifyChain();
  }

 private:
  Backend backend_;
  std::string dir_;
  std::unique_ptr<gdpr::KvGdprStore> kv_;
  std::unique_ptr<gdpr::cluster::ClusterGdprStore> cluster_;
  std::unique_ptr<gdpr::RelGdprStore> rel_;
};

// Bytes on disk under dir, split by file kind.
struct DiskBytes {
  uint64_t log = 0;    // MemKV AOF or relational WAL (and its snapshot)
  uint64_t stmt = 0;   // statement log
  uint64_t audit = 0;  // audit segments
  uint64_t other = 0;
  uint64_t total() const { return log + stmt + audit + other; }
};

inline DiskBytes MeasureDisk(const std::string& dir) {
  DiskBytes out;
  DIR* d = opendir(dir.c_str());
  if (!d) return out;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    if (stat((dir + "/" + name).c_str(), &st) != 0 || !S_ISREG(st.st_mode)) {
      continue;
    }
    const uint64_t n = uint64_t(st.st_size);
    if (name.rfind("store.", 0) == 0) out.log += n;
    else if (name.rfind("stmt.", 0) == 0) out.stmt += n;
    else if (name.rfind("audit", 0) == 0) out.audit += n;
    else out.other += n;
  }
  closedir(d);
  return out;
}

inline void RemoveTree(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (!d) return;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    struct stat st;
    if (lstat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      RemoveTree(path);
    } else {
      unlink(path.c_str());
    }
  }
  closedir(d);
  rmdir(dir.c_str());
}

}  // namespace perfbench
