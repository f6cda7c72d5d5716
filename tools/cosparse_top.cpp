#include "cosparse_top.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/table.h"
#include "obs/histogram.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/ioctl.h>
#include <unistd.h>
#define COSPARSE_TOP_HAS_TTY 1
#endif

namespace cosparse::tools {

namespace {

double number_or(const Json* v, double fallback) {
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

std::string json_scalar(const Json& v) {
  return v.is_string() ? v.as_string() : v.dump();
}

/// "tool=quickstart seed=42 sim_threads=4 interval=1i" from the snapshot
/// header (self-describing streams — no run report needed).
std::string header_line(const Json& snap) {
  const Json* header = snap.find("header");
  if (header == nullptr || !header->is_object()) return "(no header)";
  std::string out;
  for (const auto& [key, value] : header->members()) {
    if (!out.empty()) out += "  ";
    out += key + "=" + json_scalar(value);
  }
  return out.empty() ? "(no header)" : out;
}

std::string bar(double frac, int width) {
  frac = std::clamp(frac, 0.0, 1.0);
  const int fill = static_cast<int>(frac * width + 0.5);
  std::string out(static_cast<std::size_t>(fill), '#');
  out.append(static_cast<std::size_t>(width - fill), ' ');
  return out;
}

/// Per-second rate from the delta between two snapshots ("-" when there
/// is no previous snapshot or no wall time elapsed between them).
std::string rate_cell(double delta, double wall_delta_ms) {
  if (wall_delta_ms <= 0.0) return "-";
  return Table::fmt(delta / (wall_delta_ms / 1000.0), 1);
}

void render_metrics(std::ostream& os, const Json& snap, const Json* prev) {
  const Json* hist = snap.find("hist");
  if (hist == nullptr || !hist->is_object() || hist->size() == 0) {
    os << "  (no metrics yet)\n";
    return;
  }
  const double wall_delta =
      number_or(snap.find("wall_ms"), 0.0) -
      (prev != nullptr ? number_or(prev->find("wall_ms"), 0.0) : 0.0);
  const Json* prev_hist =
      prev != nullptr ? prev->find("hist") : nullptr;

  Table table({"metric", "count", "rate/s", "mean", "p50", "p90", "p99",
               "max"});
  for (const auto& [name, digest] : hist->members()) {
    obs::HistogramSummary s;
    try {
      s = obs::HistogramSummary::from_json(digest);
    } catch (const Error&) {
      continue;  // torn or foreign digest: leave it to cosparse-lint
    }
    double prev_count = 0.0;
    if (prev_hist != nullptr && prev_hist->is_object()) {
      if (const Json* pd = prev_hist->find(name); pd != nullptr) {
        prev_count = number_or(pd->find("count"), 0.0);
      }
    }
    table.add_row({name, Table::fmt(static_cast<double>(s.count), 0),
                   prev == nullptr
                       ? "-"
                       : rate_cell(static_cast<double>(s.count) - prev_count,
                                   wall_delta),
                   Table::fmt(s.mean()), Table::fmt(s.p50), Table::fmt(s.p90),
                   Table::fmt(s.p99), Table::fmt(s.max)});
  }
  table.print(os);
}

void render_tiles(std::ostream& os, const Json& snap, int bar_width) {
  // Native-mode streams (header exec_mode=native) carry no tile cycle
  // model; suppress the busy-bar panel and say why instead of rendering
  // an eternally empty one. The exec_mode header field itself shows in
  // the header line like any other field.
  if (const Json* header = snap.find("header");
      header != nullptr && header->is_object()) {
    if (const Json* mode = header->find("exec_mode");
        mode != nullptr && mode->is_string() &&
        mode->as_string() == "native") {
      os << "tiles: (native mode: no tile busy bars)\n";
      return;
    }
  }
  const Json* extra = snap.find("extra");
  if (extra == nullptr || !extra->is_object()) return;
  const Json* tiles = extra->find("tile_busy_cycles");
  if (tiles == nullptr || !tiles->is_array() || tiles->size() == 0) return;

  double max_busy = 0.0;
  for (const Json& t : tiles->items()) {
    if (t.is_number()) max_busy = std::max(max_busy, t.as_double());
  }
  os << "tiles (busy cycles";
  if (const Json* hw = extra->find("hw"); hw != nullptr && hw->is_string()) {
    os << ", hw=" << hw->as_string();
  }
  if (const Json* imb = extra->find("load_imbalance");
      imb != nullptr && imb->is_number()) {
    os << ", imbalance=" << Table::fmt(imb->as_double(), 2);
  }
  os << ")\n";
  std::size_t index = 0;
  for (const Json& t : tiles->items()) {
    const double busy = t.is_number() ? t.as_double() : 0.0;
    os << "  tile " << index++ << " |"
       << bar(max_busy > 0.0 ? busy / max_busy : 0.0, bar_width) << "| "
       << Table::fmt(busy, 0) << "\n";
  }
}

void render_slo(std::ostream& os, const std::vector<Json>& snaps) {
  std::vector<std::string> messages;
  for (const Json& snap : snaps) {
    const Json* violations = snap.find("slo_violations");
    if (violations == nullptr || !violations->is_array()) continue;
    for (const Json& v : violations->items()) {
      const Json* msg = v.find("message");
      messages.push_back(msg != nullptr && msg->is_string() ? msg->as_string()
                                                            : v.dump());
    }
  }
  if (messages.empty()) return;
  os << "SLO violations (" << messages.size() << ")\n";
  for (const std::string& m : messages) os << "  ! " << m << "\n";
}

int usage(std::ostream& err) {
  err << "usage: cosparse-top <telemetry.jsonl> [--follow]"
      << " [--refresh-ms <n>] [--frames <n>] [--width <cols>]\n";
  return 2;
}

}  // namespace

std::vector<Json> parse_snapshots(const std::string& text) {
  std::vector<Json> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      Json snap = Json::parse(line);
      if (snap.is_object()) out.push_back(std::move(snap));
    } catch (const Error&) {
      // A live tail can race the producer and see a torn final line;
      // render the complete prefix instead of failing the frame.
    }
  }
  return out;
}

namespace {

void render_dashboard_impl(std::ostream& os, const std::vector<Json>& snaps,
                           int bar_width) {
  if (snaps.empty()) {
    os << "cosparse-top: waiting for snapshots...\n";
    return;
  }
  const Json& last = snaps.back();
  const Json* prev = snaps.size() >= 2 ? &snaps[snaps.size() - 2] : nullptr;

  os << "cosparse-top  " << header_line(last) << "\n";
  const double wall_ms = number_or(last.find("wall_ms"), 0.0);
  const double iterations = number_or(last.find("iterations"), 0.0);
  os << "snapshot #" << Table::fmt(number_or(last.find("seq"), 0.0), 0)
     << "  wall " << Table::fmt(wall_ms, 1) << " ms  iterations "
     << Table::fmt(iterations, 0);
  if (prev != nullptr) {
    os << "  rate "
       << rate_cell(iterations - number_or(prev->find("iterations"), 0.0),
                    wall_ms - number_or(prev->find("wall_ms"), 0.0))
       << " it/s";
  }
  os << "\n";
  render_metrics(os, last, prev);
  render_tiles(os, last, bar_width);
  render_slo(os, snaps);
}

}  // namespace

void render_dashboard(std::ostream& os, const std::vector<Json>& snaps,
                      int width) {
  if (width <= 0) {
    render_dashboard_impl(os, snaps, 40);
    return;
  }
  // Narrow terminal: shrink the busy bars to leave room for the
  // "  tile NN |" prefix and the "| <cycles>" suffix (~24 columns), then
  // hard-clip every rendered line — a wrapped line would double the frame
  // height and tear the --follow home+clear repaint.
  std::ostringstream buf;
  render_dashboard_impl(buf, snaps, std::clamp(width - 24, 8, 40));
  std::istringstream lines(buf.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() > static_cast<std::size_t>(width)) {
      line.resize(static_cast<std::size_t>(width));
    }
    os << line << "\n";
  }
}

int detect_terminal_width() {
#ifdef COSPARSE_TOP_HAS_TTY
  if (::isatty(STDOUT_FILENO) != 0) {
    ::winsize ws{};
    if (::ioctl(STDOUT_FILENO, TIOCGWINSZ, &ws) == 0 && ws.ws_col > 0) {
      return static_cast<int>(ws.ws_col);
    }
    if (const char* cols = std::getenv("COLUMNS")) {
      char* end = nullptr;
      const long v = std::strtol(cols, &end, 10);
      if (end != nullptr && *end == '\0' && v > 0) {
        return static_cast<int>(v);
      }
    }
  }
#endif
  return 0;
}

int top_main(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err) {
  std::string path;
  bool follow = false;
  long refresh_ms = 500;
  long frames = 0;      // 0 = until interrupted (follow mode only)
  long width = -1;      // -1 = auto-detect from the terminal; 0 = unlimited
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--follow") {
      follow = true;
    } else if (arg == "--refresh-ms" || arg == "--frames" ||
               arg == "--width") {
      if (i + 1 >= argc) {
        err << "cosparse-top: " << arg << " needs a value\n";
        return usage(err);
      }
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || v < 0) {
        err << "cosparse-top: bad value for " << arg << ": " << argv[i]
            << "\n";
        return usage(err);
      }
      (arg == "--refresh-ms"
           ? refresh_ms
           : (arg == "--frames" ? frames : width)) = v;
    } else if (arg == "--help" || arg == "-h") {
      usage(out);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "cosparse-top: unknown option " << arg << "\n";
      return usage(err);
    } else if (path.empty()) {
      path = arg;
    } else {
      err << "cosparse-top: multiple input files\n";
      return usage(err);
    }
  }
  if (path.empty()) return usage(err);
  if (width < 0) width = detect_terminal_width();

  long frame = 0;
  while (true) {
    std::string text;
    {
      // Not common/file.h's read_file(): its size cap is for documents,
      // and the telemetry stream tailed here grows for as long as the
      // producer runs.
      std::ifstream in(path);
      if (in.good()) {
        std::stringstream buf;
        buf << in.rdbuf();
        text = buf.str();
      } else if (!follow) {
        err << "cosparse-top: cannot open " << path << "\n";
        return 2;
      }
      // In follow mode a missing file just renders the waiting
      // placeholder — cosparse-top may be started before the producer.
    }
    if (follow) out << "\x1b[H\x1b[2J";  // home + clear: repaint in place
    render_dashboard(out, parse_snapshots(text), static_cast<int>(width));
    out.flush();
    ++frame;
    if (!follow || (frames > 0 && frame >= frames)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(refresh_ms));
  }
  return 0;
}

}  // namespace cosparse::tools
