// pb_load: the measuring half of the benchmark. It runs one workload,
// checks every reply against the key generator's ground truth, and writes
// a raw record (raw.json plus sample files) into --out for run.py, which
// turns it into metrics.
//
//   pb_load --workload filter-dram|serve-read|serve-write --seed N
//           --seconds S --trace 0|1 --out DIR [--tool mpcbf_tool] [--tiny]
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace pb {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string render(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Record::num(const std::string& k, double v) { fields_[k] = render(v); }
void Record::num(const std::string& k, std::uint64_t v) {
  fields_[k] = std::to_string(v);
}
void Record::str(const std::string& k, const std::string& v) {
  fields_[k] = quote(v);
}
void Record::list(const std::string& k, const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += render(v[i]);
  }
  fields_[k] = out + "]";
}

void Record::fail(const std::string& why) {
  ++attempted_;
  ++failed_;
  if (reasons_.size() < 8) reasons_.push_back(why);
}

void Record::write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  os << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"failures\":[";
  for (std::size_t i = 0; i < reasons_.size(); ++i) {
    os << (i ? "," : "") << quote(reasons_[i]);
  }
  os << "]";
  for (const auto& [k, v] : fields_) os << "," << quote(k) << ":" << v;
  os << "}\n";
  if (!os) throw std::runtime_error("cannot write " + path);
}

void write_samples(const std::string& path, const std::vector<double>& v) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(double)));
  if (!os) throw std::runtime_error("cannot write " + path);
}

const char* Spans::name(Name n) {
  static constexpr const char* kNames[kNumNames] = {
      "batch", "keygen", "encode", "send", "call", "decode", "check"};
  return kNames[n];
}

void Spans::write_csv(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  os << "id,name,parent,req,start_ns,end_ns\n";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (r.end == 0) continue;  // never closed
    os << i << "," << name(r.name) << "," << r.parent << "," << r.req << ","
       << r.start << "," << r.end << "\n";
  }
  if (!os) throw std::runtime_error("cannot write " + path);
}

std::uint64_t vm_hwm_kb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream is(path);
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "pb_load: " << a << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") cfg.workload = val();
    else if (a == "--seed") cfg.seed = std::stoull(val());
    else if (a == "--seconds") cfg.seconds = std::stod(val());
    else if (a == "--trace") cfg.trace = val() == "1";
    else if (a == "--out") cfg.out_dir = val();
    else if (a == "--tool") cfg.tool = val();
    else if (a == "--tiny") cfg.tiny = true;
    else {
      std::cerr << "pb_load: unknown argument " << a << "\n";
      return 2;
    }
  }
  if (cfg.out_dir.empty() || cfg.seconds <= 0) {
    std::cerr << "pb_load: --out and a positive --seconds are required\n";
    return 2;
  }
  pb::Record rec;
  rec.str("workload", cfg.workload);
  int rc = 0;
  try {
    if (cfg.workload == "filter-dram") {
      rc = pb::run_filter_dram(cfg, rec);
    } else if (cfg.workload == "serve-read" ||
               cfg.workload == "serve-write") {
      if (cfg.tool.empty()) {
        std::cerr << "pb_load: served workloads need --tool\n";
        return 2;
      }
      rc = pb::run_served(cfg, rec);
    } else {
      std::cerr << "pb_load: unknown workload '" << cfg.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "pb_load: " << e.what() << "\n";
    rec.fail(std::string("aborted: ") + e.what());
    rc = 1;
  }
  rec.write(cfg.out_dir + "/raw.json");
  return rc;
}
