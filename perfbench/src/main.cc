// gdpr_perfbench: closed-loop GDPR traffic mixes against the engine as
// users deploy it, with every reply checked against the benchmark's own
// model. See perfbench/README.md for the workloads and metrics.
//
//   gdpr_perfbench --workload=processor --seed=1 --seconds=10 --trace=0
//                  --dir=<scratch data directory> [--trace-file=<spans.csv>]
//   gdpr_perfbench --selftest --dir=<scratch data directory>
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and the metrics (end-to-end with --trace=0, per-layer with --trace=1).
// The line before it is the extended report.

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "model.h"
#include "probes.h"
#include "system.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  Backend backend;
  Mix mix;
  bool processor_reads;
  // Ops per second both clients send together on the reference host; a
  // run sends seconds * rate ops, so the work is fixed by the arguments
  // and not by the clock.
  double rate;
  // CPUs every thread runs on during the timed phase (see CpuPlan).
  int cpus;
};

// Entry weights: read_data, read_meta, update_meta, update_data,
// query_purpose, query_user, export, delete_key, forget; then how many
// metadata fields updates change. relational is GDPRbench's customer mix
// (bench/runner.h), whose updates change the retention deadline; the other
// shares are chosen to load the layers each workload stands for.
const Workload kWorkloads[] = {
    {"processor", Backend::kKv, {900, 0, 8, 7, 80, 0, 0, 0, 5, 4}, true, 10000, 2},
    {"consent", Backend::kKv, {0, 170, 500, 150, 0, 120, 0, 0, 10, 4}, false, 19000, 1},
    {"rights-rpc", Backend::kCluster, {450, 0, 125, 125, 0, 0, 200, 0, 20, 4},
     false, 14000, 1},
    {"relational", Backend::kRel, {30, 20, 15, 0, 0, 25, 0, 8, 2, 1}, false, 7500, 1},
};

constexpr int kSetups = 3;         // set-ups per run; setup_s is their median
constexpr int kSetupsFirst = 2;    // of them before the timed phase; the rest after
constexpr int kRecovers = 5;       // close+reopen cycles; recover_s is the median
constexpr int kRounds = 5;         // timed rounds; each metric is their median
constexpr size_t kFinalForgets = 2;  // per client, never re-registered

struct Args {
  std::string workload = "processor";
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_file;  // where the traced run writes its spans
  size_t records = 20000;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string s = argv[i];
    auto val = [&](const char* flag) -> const char* {
      const size_t n = strlen(flag);
      if (s.compare(0, n, flag) == 0 && s.size() > n && s[n] == '=') {
        return argv[i] + n + 1;
      }
      return nullptr;
    };
    if (const char* v = val("--workload")) a->workload = v;
    else if (const char* v = val("--seed")) a->seed = strtoull(v, nullptr, 10);
    else if (const char* v = val("--seconds")) a->seconds = atof(v);
    else if (const char* v = val("--trace")) a->trace = atoi(v) != 0;
    else if (const char* v = val("--dir")) a->dir = v;
    else if (const char* v = val("--trace-file")) a->trace_file = v;
    else if (s == "--selftest") a->selftest = true;
    else {
      fprintf(stderr, "unknown argument: %s\n", s.c_str());
      return false;
    }
  }
  if (a->dir.empty() || a->seconds <= 0) {
    fprintf(stderr, "need --dir and --seconds > 0\n");
    return false;
  }
  return true;
}

// Set-up, recovery and the checks run on one CPU; the timed phase runs on
// the workload's `cpus` (Workload::cpus). On a virtual machine a thread
// woken on an idle vCPU waits for the hypervisor to run that vCPU again,
// and the wait shows as steal in /proc/stat. Set-up, recovery, consent,
// rights-rpc and relational hand every request to an engine thread (the
// committer, an RPC server loop), so on two CPUs each request paid that
// wait: in alternating runs steal read 0.5-10 s per run on two CPUs
// against 0.1-0.8 s on one, throughput and write and forget p90 followed
// it, and a 20k-record relational set-up took 3.7 s on two CPUs and 1.4 s
// on one. On one CPU a hand-off is a switch on the same CPU. processor's
// reads hand nothing off, so its two clients keep a CPU each; on one CPU
// each client's reads would wait out the other's queries. A change that
// adds parallelism cannot show its gain here.
class CpuPlan {
 public:
  // Notes the CPUs the process may use; call before any thread starts.
  CpuPlan() {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }

  // Moves every thread of the process onto the first n usable CPUs;
  // threads started later inherit the set from the thread that starts
  // them. Returns the CPUs, for the report.
  std::string PinAll(int n) {
    cpu_set_t pick;
    CPU_ZERO(&pick);
    std::string names;
    for (int i = 0; i < n && i < int(cpus_.size()); ++i) {
      CPU_SET(cpus_[size_t(i)], &pick);
      names += (i ? "," : "") + std::to_string(cpus_[size_t(i)]);
    }
    if (names.empty()) return "unpinned";
    DIR* d = opendir("/proc/self/task");
    if (!d) return "unpinned";
    bool ok = true;
    while (dirent* e = readdir(d)) {
      if (e->d_name[0] == '.') continue;
      ok &= sched_setaffinity(pid_t(atoi(e->d_name)), sizeof pick, &pick) == 0;
    }
    closedir(d);
    return ok ? names : "unpinned";
  }

  int count() const { return int(cpus_.size()); }
  int cpu(int i) const { return cpus_[size_t(i)]; }

 private:
  std::vector<int> cpus_;
};

// While a phase runs on more than one CPU, one SCHED_IDLE thread per CPU
// spins there, so a vCPU whose thread blocks on a hand-off stays busy and
// a thread woken on it runs at once instead of waiting for the hypervisor.
// The spinners run only when nothing else on their CPU can. In alternating
// processor runs they cut forget p90 from 780-1030 us to 770-800 us and
// steal from 1.4-2.6 s to 0.7-1.4 s per run. They do not make two CPUs
// pay for the other workloads: rights-rpc on two CPUs with spinners took
// 18-20 s for the phase it runs in 11 s on one. Start them after PinAll
// and stop them before the next PinAll, which would move them.
class IdleSpinners {
 public:
  IdleSpinners(const CpuPlan& plan, int n) {
    if (n < 2) return;
    for (int i = 0; i < n && i < plan.count(); ++i) {
      const int cpu = plan.cpu(i);
      threads_.emplace_back([this, cpu] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
        sched_param lowest{};
        sched_setscheduler(0, SCHED_IDLE, &lowest);
        while (!stop_.load(std::memory_order_relaxed)) asm volatile("pause");
      });
    }
  }
  ~IdleSpinners() {
    stop_ = true;
    for (auto& t : threads_) t.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

CpuPlan& Cpus() {
  static CpuPlan plan;
  return plan;
}

// Fixed CPU loop, reported beside the metrics as a host-speed probe.
double HostProbeMs() {
  const int64_t t0 = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const int64_t t1 = NowNs();
  asm volatile("" : : "r"(x));
  return double(t1 - t0) / 1e6;
}

// CPU time the hypervisor gave to other guests while this host's CPUs
// wanted to run (the "steal" column of /proc/stat), in seconds since boot:
// a second host-speed probe, reported and never folded into the metrics.
double StealSeconds() {
  FILE* f = fopen("/proc/stat", "r");
  if (!f) return 0;
  unsigned long long v[8] = {};
  const int n = fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                       &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  fclose(f);
  return n == 8 ? double(v[7]) / double(sysconf(_SC_CLK_TCK)) : 0;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  const size_t k = std::min(v.size() - 1, size_t(p * double(v.size())));
  std::nth_element(v.begin(), v.begin() + long(k), v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Metric values carry all their digits; the report is for reading.
std::string Fmt(double v, int digits = 6) {
  char buf[64];
  snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

class Runner {
 public:
  Runner(const Args& args, const Workload& w)
      : args_(args), w_(w), ds_(args.records) {}

  int Run(const Plant& plant, bool flip_payload);

 private:
  std::string FreshDir(const std::string& name) {
    const std::string d = args_.dir + "/" + name;
    RemoveTree(d);
    mkdir(d.c_str(), 0755);
    return d;
  }

  // Open plus load of the dataset through the GDPR API, one loader.
  bool Setup(System* sys, double* seconds) {
    const int64_t t0 = NowNs();
    gdpr::Status s = sys->Open();
    if (!s.ok()) return Fail("open: " + s.ToString());
    const Actor controller = Actor::Controller();
    for (size_t i = 0; i < ds_.records(); ++i) {
      s = sys->store()->CreateRecord(controller, ds_.Make(i));
      if (!s.ok()) return Fail("load: " + s.ToString());
    }
    *seconds = double(NowNs() - t0) / 1e9;
    return true;
  }

  void LoadModel() {
    model_.Init(ds_);
    for (size_t i = 0; i < ds_.records(); ++i) model_.Put(ds_, i, ds_.Make(i));
  }

  // Runs both clients' streams to their end in kRounds rounds: each client
  // sends the next part of its stream, and a round ends when both are
  // done. Returns each round's wall seconds.
  std::vector<double> Phase(System* sys, RequestHook* hook, const Plant& plant,
                            std::vector<std::unique_ptr<Client>>* clients) {
    clients->clear();
    phase_cpus_ = Cpus().PinAll(w_.cpus);
    auto spinners = std::make_unique<IdleSpinners>(Cpus(), w_.cpus);
    for (int c = 0; c < kClients; ++c) {
      clients->push_back(std::make_unique<Client>(
          c, ds_, &model_, sys, Actors{w_.processor_reads}, streams_[c], hook,
          c == 0 ? plant : Plant{}));
    }
    std::mutex mu;
    std::condition_variable cv;
    int round = -1, done = 0;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client* cl = (*clients)[size_t(c)].get();
        const size_t n = cl->stream().size();
        for (int r = 0; r < kRounds; ++r) {
          {
            std::unique_lock<std::mutex> l(mu);
            cv.wait(l, [&] { return round >= r; });
          }
          cl->RunRange(n * size_t(r) / kRounds, n * size_t(r + 1) / kRounds);
          {
            std::lock_guard<std::mutex> l(mu);
            ++done;
          }
          cv.notify_all();
        }
      });
    }
    std::vector<double> secs;
    for (int r = 0; r < kRounds; ++r) {
      int64_t t0;
      {
        std::lock_guard<std::mutex> l(mu);
        done = 0;
        round = r;
        t0 = NowNs();
      }
      cv.notify_all();
      std::unique_lock<std::mutex> l(mu);
      cv.wait(l, [&] { return done == kClients; });
      secs.push_back(double(NowNs() - t0) / 1e9);
    }
    for (auto& t : threads) t.join();
    spinners.reset();
    Cpus().PinAll(1);
    return secs;
  }

  // The full store state against the model: every live record as the
  // model holds it, every erased record gone with its erasure evidenced.
  bool CheckState(System* sys, const char* when) {
    std::map<size_t, GdprRecord> got;
    bool dup = false;
    gdpr::Status s = sys->store()->ScanRecords(
        Actor::Controller(), [&](const GdprRecord& r) {
          dup |= !got.emplace(std::stoul(r.key.substr(4)), r).second;
          return true;
        });
    audited_ += sys->FanoutCost();
    if (!s.ok()) return Fail(std::string(when) + ": scan: " + s.ToString());
    if (dup) return Fail(std::string(when) + ": scan returned a key twice");
    size_t live = 0;
    for (size_t i = 0; i < model_.records.size(); ++i) {
      const auto& e = model_.records[i];
      auto it = got.find(i);
      if (e.live) {
        ++live;
        if (it == got.end() || !SameRecord(it->second, e.rec)) {
          return Fail(std::string(when) + ": record " + ds_.Key(i) +
                      " differs from the model");
        }
        continue;
      }
      if (it != got.end()) {
        return Fail(std::string(when) + ": erased " + ds_.Key(i) + " is back");
      }
      auto v = sys->store()->VerifyDeletion(Actor::Regulator(), ds_.Key(i));
      ++audited_;
      if (!v.ok() || !v.value()) {
        return Fail(std::string(when) + ": VerifyDeletion(" + ds_.Key(i) +
                    ") is not true");
      }
    }
    if (got.size() != live || sys->store()->RecordCount() != live) {
      return Fail(std::string(when) + ": record count differs from the model");
    }
    return true;
  }

  // A read of one live record, checked: the end of a recovery.
  bool FirstRead(System* sys) {
    for (size_t i = 0; i < model_.records.size(); ++i) {
      if (!model_.records[i].live) continue;
      auto r = sys->store()->ReadDataByKey(
          Actor::Customer(ds_.User(ds_.SubjectOf(i))), ds_.Key(i));
      ++audited_;
      if (!r.ok() || !SameRecord(r.value(), model_.records[i].rec)) {
        return Fail("first read after reopen does not match the model");
      }
      return true;
    }
    return Fail("no live record to read");
  }

  // After reopen: erased subjects stay erased, and the audit chain holds
  // exactly the entries of every audited call and verifies.
  bool CheckReopened(System* sys) {
    if (!CheckState(sys, "after reopen")) return false;
    std::vector<bool> seen(ds_.users(), false);
    for (size_t i = 0; i < model_.records.size(); ++i) {
      const size_t u = ds_.SubjectOf(i);
      if (model_.records[i].live || model_.live_by_subject[u] || seen[u]) continue;
      seen[u] = true;
      auto r = sys->store()->ReadRecordsByUser(Actor::Controller(), ds_.User(u));
      audited_ += sys->FanoutCost();
      if (!r.ok() || !r.value().empty()) {
        return Fail("erased subject " + ds_.User(u) + " has records after reopen");
      }
    }
    const size_t entries = sys->AuditEntries();
    if (entries != audited_) {
      return Fail("audit chain holds " + std::to_string(entries) +
                  " entries, expected " + std::to_string(audited_));
    }
    if (!sys->VerifyAudit()) return Fail("audit chain does not verify");
    return true;
  }

  bool Fail(const std::string& why) {
    fprintf(stderr, "perfbench: FAILED CHECK: %s\n", why.c_str());
    state_ok_ = false;
    return false;
  }

  const Args& args_;
  const Workload& w_;
  Dataset ds_;
  Model model_;
  std::vector<Op> streams_[kClients];
  uint64_t audited_ = 0;
  bool state_ok_ = true;
  std::string phase_cpus_;  // the CPUs the timed phase ran on
};

int Runner::Run(const Plant& plant, bool flip_payload) {
  const double probe_before = HostProbeMs();
  const double steal_before = StealSeconds();
  // The traced run does half the work: its probes make each request
  // several times slower, and the run must still end in time.
  const double share = args_.trace ? 0.5 : 1.0;
  const size_t per_client =
      size_t(std::ceil(share * args_.seconds * w_.rate / kClients));
  for (int c = 0; c < kClients; ++c) {
    streams_[c] = MakeStream(ds_, w_.mix, args_.seed, c, per_client, kFinalForgets);
  }

  // Set-up, several times; the last store serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int k = 0; k < kSetupsFirst; ++k) {
    if (sys) {
      sys->Close().ok();
      RemoveTree(sys->dir());
    }
    sys = std::make_unique<System>(w_.backend, FreshDir("setup" + std::to_string(k)));
    double s = 0;
    if (!Setup(sys.get(), &s)) return 1;
    setup_s.push_back(s);
  }
  audited_ = ds_.records();
  LoadModel();
  if (flip_payload) {
    // Planted fault: the model expects one flipped payload byte on the
    // first record client 0 reads.
    for (const Op& op : streams_[0]) {
      if (op.kind != Kind::kReadData && op.kind != Kind::kExport) continue;
      const size_t i = op.kind == Kind::kReadData ? op.target : ds_.Record(op.target, 0);
      model_.records[i].rec.data[0] ^= 1;
      break;
    }
  }

  std::unique_ptr<Probes> probes;
  std::vector<std::unique_ptr<Client>> clients;
  double untraced_ops_s = 0;
  if (args_.trace) {
    // The untraced reference: the same streams on a twin store, for the
    // tracing overhead. Its own set-up is not reported.
    Model saved = model_;
    const uint64_t saved_audited = audited_;
    {
      System twin(w_.backend, FreshDir("untraced"));
      double s = 0;
      if (!Setup(&twin, &s)) return 1;
      double secs = 0;
      for (double s : Phase(&twin, nullptr, Plant{}, &clients)) secs += s;
      untraced_ops_s = double(streams_[0].size() + streams_[1].size()) / secs;
      twin.Close().ok();
      RemoveTree(twin.dir());
    }
    model_ = saved;
    audited_ = saved_audited;
    probes = std::make_unique<Probes>(ds_, sys.get(), args_.dir + "/probe");
    if (!probes->Load(model_)) return Fail("probe set-up failed"), 1;
  }

  const gdpr::obs::RegistrySnapshot before = sys->store()->StatsSnapshot();
  const std::vector<double> round_s = Phase(sys.get(), probes.get(), plant, &clients);
  const gdpr::obs::RegistrySnapshot after = sys->store()->StatsSnapshot();
  if (probes) audited_ += probes->audited();
  double phase_s = 0;
  for (double s : round_s) phase_s += s;

  uint64_t attempted = 0, failed = 0;
  std::vector<double> lat[kClassCount];
  uint64_t cls_attempted[kClassCount] = {}, cls_failed[kClassCount] = {};
  uint64_t query_records = 0, queries = 0;
  for (auto& cl : clients) {
    ClientStats& st = cl->stats();
    audited_ += st.audited;
    query_records += st.query_records;
    queries += st.queries;
    for (int c = 0; c < kClassCount; ++c) {
      attempted += st.cls[c].attempted;
      failed += st.cls[c].failed;
      cls_attempted[c] += st.cls[c].attempted;
      cls_failed[c] += st.cls[c].failed;
      lat[c].insert(lat[c].end(), st.cls[c].lat_us.begin(), st.cls[c].lat_us.end());
    }
    for (const auto& e : st.errors) fprintf(stderr, "perfbench: FAILED OP: %s\n", e.c_str());
  }

  // Each timed metric is the median of its value in each round, so a slow
  // stretch of the host shorter than half the run does not move it.
  std::vector<double> round_ops_s;
  std::vector<double> round_pct[kClassCount][2];
  for (int r = 0; r < kRounds; ++r) {
    uint64_t ops = 0;
    std::vector<double> in_round[kClassCount];
    for (auto& cl : clients) {
      const ClientStats& st = cl->stats();
      for (int c = 0; c < kClassCount; ++c) {
        const size_t from = r ? st.marks[size_t(r - 1)][c] : 0;
        const size_t to = st.marks[size_t(r)][c];
        ops += to - from;
        in_round[c].insert(in_round[c].end(), st.cls[c].lat_us.begin() + long(from),
                           st.cls[c].lat_us.begin() + long(to));
      }
    }
    round_ops_s.push_back(double(ops) / round_s[size_t(r)]);
    for (int c = 0; c < kClassCount; ++c) {
      if (in_round[c].empty()) continue;
      round_pct[c][0].push_back(Percentile(in_round[c], 0.5));
      round_pct[c][1].push_back(Percentile(in_round[c], 0.9));
    }
  }
  const double throughput = Median(round_ops_s);

  // Space, then the full state, then recovery.
  const size_t live = model_.Live();
  const double personal_bytes = double(live * ds_.config().data_bytes);
  const double space_factor = double(sys->store()->TotalBytes()) / personal_bytes;
  CheckState(sys.get(), "after the run");

  std::vector<double> recover_s;
  DiskBytes disk;
  for (int k = 0; k < kRecovers && state_ok_; ++k) {
    const int64_t t0 = NowNs();
    sys->Close().ok();
    if (k == 0) disk = MeasureDisk(sys->dir());
    gdpr::Status s = sys->Open();
    if (!s.ok()) {
      Fail("reopen: " + s.ToString());
      break;
    }
    if (!FirstRead(sys.get())) break;
    recover_s.push_back(double(NowNs() - t0) / 1e9);
  }
  if (state_ok_) CheckReopened(sys.get());
  sys->Close().ok();

  std::string layer_json;
  if (probes) {
    probes->Finish(sys.get(), before, after, attempted, queries, query_records);
    layer_json = probes->MetricsJson();
    if (!args_.trace_file.empty()) probes->WriteTrace(args_.trace_file);
  }
  RemoveTree(sys->dir());

  // The remaining set-ups come after the run, so that setup_s samples the
  // host over the whole run and not over its first seconds only.
  for (int k = kSetupsFirst; k < kSetups && state_ok_; ++k) {
    System extra(w_.backend, FreshDir("setup" + std::to_string(k)));
    double s = 0;
    if (!Setup(&extra, &s)) break;
    setup_s.push_back(s);
    extra.Close().ok();
    RemoveTree(extra.dir());
  }

  const double probe_after = HostProbeMs();
  const double steal_s = StealSeconds() - steal_before;
  const bool correct = state_ok_ && failed == 0 && recover_s.size() == kRecovers;

  // Extended report (not gated).
  std::string rep = "{\"workload\":\"" + std::string(w_.name) +
                    "\",\"seed\":" + std::to_string(args_.seed) +
                    ",\"records\":" + std::to_string(ds_.records()) +
                    ",\"phase_s\":" + Fmt(phase_s);
  for (int c = 0; c < kClients; ++c) {
    char digest[32];
    snprintf(digest, sizeof digest, "%016llx",
             (unsigned long long)StreamDigest(streams_[c]));
    rep += ",\"stream" + std::to_string(c) + "\":{\"ops\":" +
           std::to_string(streams_[c].size()) + ",\"digest\":\"" + digest + "\"}";
  }
  rep += ",\"classes\":{";
  for (int c = 0; c < kClassCount; ++c) {
    if (c) rep += ",";
    rep += std::string("\"") + ClassName(c) +
           "\":{\"attempted\":" + std::to_string(cls_attempted[c]) +
           ",\"failed\":" + std::to_string(cls_failed[c]) +
           ",\"n\":" + std::to_string(lat[c].size()) +
           ",\"p99_us\":" + Fmt(Percentile(lat[c], 0.99)) + "}";
  }
  rep += "},\"disk_bytes\":{\"log\":" + std::to_string(disk.log) +
         ",\"stmt\":" + std::to_string(disk.stmt) +
         ",\"audit\":" + std::to_string(disk.audit) +
         ",\"other\":" + std::to_string(disk.other) + "}";
  rep += ",\"setup_s\":[";
  for (size_t k = 0; k < setup_s.size(); ++k) rep += (k ? "," : "") + Fmt(setup_s[k]);
  rep += "],\"recover_s\":[";
  for (size_t k = 0; k < recover_s.size(); ++k) rep += (k ? "," : "") + Fmt(recover_s[k]);
  rep += "],\"round_ops_s\":[";
  for (size_t k = 0; k < round_ops_s.size(); ++k) rep += (k ? "," : "") + Fmt(round_ops_s[k]);
  rep += "],\"host_probe_ms\":[" + Fmt(probe_before) + "," + Fmt(probe_after) +
         "],\"steal_s\":" + Fmt(steal_s) + ",\"cpus\":\"" + phase_cpus_ + "\"";
  if (args_.trace) {
    rep += ",\"untraced_throughput_ops_s\":" + Fmt(untraced_ops_s) +
           ",\"traced_throughput_ops_s\":" + Fmt(throughput) +
           ",\"trace_overhead\":" + Fmt(untraced_ops_s / throughput);
  }
  rep += "}";
  printf("report %s\n", rep.c_str());

  std::string metrics;
  auto add = [&](const char* name, double v, const char* unit) {
    if (!metrics.empty()) metrics += ",";
    metrics += std::string("\"") + name + "\":{\"value\":" + Fmt(v, 17) +
               ",\"unit\":\"" + unit + "\"}";
  };
  if (args_.trace) {
    metrics = layer_json;
  } else {
    add("throughput_ops_s", throughput, "1/s");
    const char* names[kClassCount][2] = {{"read_p50_us", "read_p90_us"},
                                         {"write_p50_us", "write_p90_us"},
                                         {"query_p50_us", "query_p90_us"},
                                         {"forget_p50_us", "forget_p90_us"}};
    for (int c = 0; c < kClassCount; ++c) {
      add(names[c][0], Median(round_pct[c][0]), "us");
      add(names[c][1], Median(round_pct[c][1]), "us");
    }
    add("setup_s", Median(setup_s), "s");
    add("recover_s", recover_s.empty() ? 0 : Median(recover_s), "s");
    add("space_factor", space_factor, "ratio");
    add("disk_factor", double(disk.total()) / personal_bytes, "ratio");
    add("rss_mb", PeakRssMb(), "MB");
  }
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
         correct ? "true" : "false", (unsigned long long)attempted,
         (unsigned long long)failed, metrics.c_str());
  fflush(stdout);
  return 0;
}

// Plants each wrong expectation in turn on a short processor run and
// checks that the benchmark reports it; a clean run must report none.
int SelfTest(const Args& base) {
  Args a = base;
  a.workload = "processor";
  a.seconds = 1;
  a.records = 2000;
  struct Case {
    const char* name;
    bool flip;
    bool skip;
    bool expect_failure;
  } cases[] = {{"clean", false, false, false},
               {"flipped payload byte", true, false, true},
               {"skipped re-registration", false, true, true}};
  int bad = 0;
  for (const Case& c : cases) {
    fprintf(stderr, "perfbench selftest: %s\n", c.name);
    fflush(stdout);
    // Each case runs in a child so its result line is parsed separately.
    int fds[2];
    if (pipe(fds) != 0) return 1;
    const pid_t pid = fork();
    if (pid == 0) {
      dup2(fds[1], 1);
      close(fds[0]);
      Plant plant;
      plant.skip_recreate = c.skip;
      Runner r(a, kWorkloads[0]);
      _exit(r.Run(plant, c.flip));
    }
    close(fds[1]);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) out.append(buf, size_t(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    // A planted error must show as a failed operation; a clean run must
    // read correct with none failed.
    const size_t last = out.rfind("{\"correct\"");
    const bool none_failed =
        last != std::string::npos &&
        out.find("\"failed\": 0,", last) != std::string::npos;
    const bool clean =
        none_failed && out.compare(last, 17, "{\"correct\": true,") == 0;
    const bool pass = WIFEXITED(status) && last != std::string::npos &&
                      (c.expect_failure ? !none_failed : clean);
    fprintf(stderr, "perfbench selftest: %s: %s\n", c.name,
            pass ? "ok" : "NOT DETECTED AS EXPECTED");
    bad += !pass;
  }
  printf("{\"selftest\": %s}\n", bad ? "false" : "true");
  return bad ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  mkdir(args.dir.c_str(), 0755);
  Cpus().PinAll(1);
  if (args.selftest) return SelfTest(args);
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      Runner r(args, w);
      return r.Run(Plant{}, false);
    }
  }
  fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}
