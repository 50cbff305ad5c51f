#include "obs/trace_report.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

namespace ft {

TraceReport
foldTrace(const std::vector<ParsedTraceEvent> &events)
{
    TraceReport out;
    out.events = events.size();

    struct PhaseAcc
    {
        uint64_t spans = 0;
        uint64_t points = 0;
        double simSeconds = 0.0;
        uint64_t wallNs = 0;
        std::vector<double> openBegins; ///< stack: nested same-name spans
    };
    std::map<std::string, PhaseAcc> phases;
    std::map<std::string, uint64_t> rejects;
    std::map<int64_t, uint64_t> queueDepths;
    std::map<std::string, uint64_t> admReasons;

    // "code=FT-ADM-... depth=N why=..." -> the code token.
    auto reasonCode = [](const std::string &reason) -> std::string {
        const std::string prefix = "code=";
        if (reason.rfind(prefix, 0) != 0)
            return reason.empty() ? "?" : reason;
        const size_t end = reason.find(' ', prefix.size());
        return reason.substr(prefix.size(), end == std::string::npos
                                                ? std::string::npos
                                                : end - prefix.size());
    };
    auto admissionDepth = [&](const ParsedTraceEvent &e) {
        if (e.has("depth"))
            ++queueDepths[e.integer("depth")];
    };

    for (const ParsedTraceEvent &e : events) {
        if (e.type != 'M')
            out.simSeconds = std::max(out.simSeconds, e.sim);
        switch (e.type) {
          case 'M':
            if (e.name == "run") {
                out.op = e.str("op");
                out.device = e.str("device");
                out.method = e.str("method");
                out.seed = static_cast<uint64_t>(e.integer("seed"));
            } else if (e.name == "family_run") {
                // Family runs label the timeline with the family name
                // in place of a single operator.
                out.op = e.str("family");
                out.device = e.str("device");
                out.method = e.str("method");
                out.seed = static_cast<uint64_t>(e.integer("seed"));
            } else if (e.name == "graph_run") {
                ++out.graph.runs;
                out.graph.dag = e.str("dag");
                out.graph.fingerprint =
                    static_cast<uint64_t>(e.integer("fingerprint"));
                out.graph.nodes = e.integer("nodes");
                if (out.device.empty())
                    out.device = e.str("device");
                if (out.method.empty())
                    out.method = e.str("method");
            }
            break;
          case 'B':
            phases[e.name].openBegins.push_back(e.sim);
            if (e.name == "graph.subgraph") {
                GraphSubgraph sub;
                sub.name = e.str("group");
                sub.members = e.integer("members");
                out.graph.subgraphs.push_back(std::move(sub));
            }
            break;
          case 'E': {
            PhaseAcc &acc = phases[e.name];
            if (!acc.openBegins.empty()) {
                acc.simSeconds += e.sim - acc.openBegins.back();
                acc.openBegins.pop_back();
                ++acc.spans;
                int64_t ns = e.integer("ns");
                if (ns > 0)
                    acc.wallNs += static_cast<uint64_t>(ns);
            }
            if (e.name == "costmodel.train") {
                ++out.costModel.refits;
            } else if (e.name == "graph.partition") {
                out.graph.groups = e.integer("groups");
                out.graph.trafficBytes = e.integer("traffic_bytes");
                out.graph.ephemeralBytes = e.integer("ephemeral_bytes");
            } else if (e.name == "graph.subgraph" &&
                       !out.graph.subgraphs.empty()) {
                GraphSubgraph &sub = out.graph.subgraphs.back();
                sub.tuned = e.str("tuned") == "true";
                sub.seconds = e.real("seconds");
                sub.trafficBytes = e.integer("traffic_bytes");
                sub.ephemeralBytes = e.integer("ephemeral_bytes");
            }
            break;
          }
          case 'P': {
            ++phases[e.name].points;
            if (e.name == "eval") {
                ++out.trials;
                double best = e.real("best");
                out.bestGflops = std::max(out.bestGflops, best);
                out.curve.emplace_back(out.trials, best);
            } else if (e.name == "report" && e.has("reused_from") &&
                       !out.graph.subgraphs.empty()) {
                // A reused anchor: folded like a cached report, inside
                // its group's span.
                out.graph.subgraphs.back().reusedFrom =
                    e.integer("reused_from");
            } else if (e.name == "verify.reject") {
                ++rejects[e.str("code")];
            } else if (e.name == "admission.admit") {
                ++out.serve.admitted;
                admissionDepth(e);
            } else if (e.name == "admission.shed") {
                ++out.serve.shed;
                admissionDepth(e);
                ++admReasons[reasonCode(e.str("reason"))];
            } else if (e.name == "admission.brownout") {
                ++out.serve.brownouts;
                admissionDepth(e);
                ++admReasons[reasonCode(e.str("reason"))];
            } else if (e.name == "admission.breaker_reject") {
                ++out.serve.breakerRejects;
                admissionDepth(e);
                ++admReasons[reasonCode(e.str("reason"))];
            } else if (e.name == "admission.breaker_open") {
                ++out.serve.breakerOpens;
            } else if (e.name == "admission.breaker_close") {
                ++out.serve.breakerCloses;
            } else if (e.name == "certificate") {
                CertificateEntry entry;
                entry.op = e.str("op");
                entry.verdict = e.str("verdict");
                entry.obligations = e.integer("obligations");
                entry.refuted = e.integer("refuted");
                entry.unknown = e.integer("unknown");
                if (entry.verdict == "proven")
                    ++out.certificates.proven;
                else if (entry.verdict == "refuted")
                    ++out.certificates.refuted;
                else
                    ++out.certificates.unknown;
                out.certificates.entries.push_back(std::move(entry));
            } else if (e.name == "costmodel.warm_start") {
                ++out.costModel.warmStarts;
            } else if (e.name == "costmodel.prune") {
                ++out.costModel.pruneEvents;
                const int64_t considered = e.integer("considered");
                const int64_t kept = e.integer("kept");
                out.costModel.kept += static_cast<uint64_t>(kept);
                if (considered > kept)
                    out.costModel.dropped +=
                        static_cast<uint64_t>(considered - kept);
            }
            break;
          }
          default:
            break;
        }
    }

    for (auto &[name, acc] : phases) {
        PhaseBreakdown p;
        p.name = name;
        p.spans = acc.spans;
        p.points = acc.points;
        p.simSeconds = acc.simSeconds;
        p.wallNs = acc.wallNs;
        out.phases.push_back(std::move(p));
    }
    std::sort(out.phases.begin(), out.phases.end(),
              [](const PhaseBreakdown &a, const PhaseBreakdown &b) {
                  if (a.simSeconds != b.simSeconds)
                      return a.simSeconds > b.simSeconds;
                  return a.name < b.name;
              });
    for (const auto &[code, count] : rejects)
        out.verifyRejects.emplace_back(code, count);
    for (const auto &[depth, count] : queueDepths)
        out.serve.queueDepths.emplace_back(depth, count);
    for (const auto &[code, count] : admReasons)
        out.serve.reasons.emplace_back(code, count);
    return out;
}

std::optional<TraceReport>
loadTraceReport(const std::string &path)
{
    auto events = loadTraceFile(path);
    if (!events)
        return std::nullopt;
    return foldTrace(*events);
}

std::string
renderTraceReport(const TraceReport &report, int curvePoints)
{
    std::ostringstream oss;
    char buf[160];
    oss << "run: " << (report.op.empty() ? "?" : report.op) << " on "
        << (report.device.empty() ? "?" : report.device) << " with "
        << (report.method.empty() ? "?" : report.method) << " (seed "
        << report.seed << ")\n";
    std::snprintf(buf, sizeof(buf),
                  "%llu events, %d trials, best %.1f GFLOPS, "
                  "%.1f simulated seconds\n",
                  (unsigned long long)report.events, report.trials,
                  report.bestGflops, report.simSeconds);
    oss << buf;

    oss << "\nper-phase breakdown (simulated clock):\n";
    // The wall-ms column appears only for wall-profiled traces, so
    // unprofiled reports render exactly as before.
    bool any_wall = false;
    for (const PhaseBreakdown &p : report.phases)
        any_wall = any_wall || p.wallNs > 0;
    std::snprintf(buf, sizeof(buf), "%-18s %8s %8s %12s %7s", "phase",
                  "spans", "points", "sim-sec", "%");
    oss << buf;
    if (any_wall) {
        std::snprintf(buf, sizeof(buf), " %10s", "wall-ms");
        oss << buf;
    }
    oss << "\n";
    for (const PhaseBreakdown &p : report.phases) {
        double pct = report.simSeconds > 0.0
                         ? 100.0 * p.simSeconds / report.simSeconds
                         : 0.0;
        std::snprintf(buf, sizeof(buf), "%-18s %8llu %8llu %12.2f %6.1f%%",
                      p.name.c_str(), (unsigned long long)p.spans,
                      (unsigned long long)p.points, p.simSeconds, pct);
        oss << buf;
        if (any_wall) {
            std::snprintf(buf, sizeof(buf), " %10.2f",
                          static_cast<double>(p.wallNs) / 1e6);
            oss << buf;
        }
        oss << "\n";
    }
    if (any_wall && !report.graph.subgraphs.empty())
        oss << "(wall-ms sums every anchor search; a graph run searches "
               "concurrently, so it can exceed the run's wall time)\n";

    if (!report.verifyRejects.empty()) {
        oss << "\nverifier rejections by code:\n";
        for (const auto &[code, count] : report.verifyRejects) {
            std::snprintf(buf, sizeof(buf), "  %-14s %8llu\n",
                          code.c_str(), (unsigned long long)count);
            oss << buf;
        }
    }

    if (report.serve.any()) {
        const ServeBreakdown &s = report.serve;
        oss << "\nserve (admission control):\n";
        std::snprintf(buf, sizeof(buf),
                      "  admitted %llu, shed %llu, brownouts %llu, "
                      "breaker rejects %llu (opened %llu, closed %llu)\n",
                      (unsigned long long)s.admitted,
                      (unsigned long long)s.shed,
                      (unsigned long long)s.brownouts,
                      (unsigned long long)s.breakerRejects,
                      (unsigned long long)s.breakerOpens,
                      (unsigned long long)s.breakerCloses);
        oss << buf;
        if (!s.reasons.empty()) {
            oss << "  rejection reasons by code:\n";
            for (const auto &[code, count] : s.reasons) {
                std::snprintf(buf, sizeof(buf), "    %-20s %8llu\n",
                              code.c_str(), (unsigned long long)count);
                oss << buf;
            }
        }
        if (!s.queueDepths.empty()) {
            oss << "  queue depth at decision:\n";
            for (const auto &[depth, count] : s.queueDepths) {
                std::snprintf(buf, sizeof(buf), "    depth %4lld %8llu\n",
                              (long long)depth,
                              (unsigned long long)count);
                oss << buf;
            }
        }
    }

    if (report.graph.any()) {
        const GraphBreakdown &g = report.graph;
        oss << "\ngraph scheduling:\n";
        std::snprintf(buf, sizeof(buf),
                      "  dag %s: %lld nodes -> %lld groups "
                      "(fingerprint %llu)\n",
                      g.dag.empty() ? "?" : g.dag.c_str(),
                      (long long)g.nodes, (long long)g.groups,
                      (unsigned long long)g.fingerprint);
        oss << buf;
        std::snprintf(buf, sizeof(buf),
                      "  modeled DRAM traffic %lld bytes, "
                      "%lld ephemeral bytes kept on chip\n",
                      (long long)g.trafficBytes,
                      (long long)g.ephemeralBytes);
        oss << buf;
        if (!g.subgraphs.empty()) {
            std::snprintf(buf, sizeof(buf),
                          "  %-14s %7s %6s %12s %14s %12s\n", "group",
                          "members", "tuned", "est-sec", "traffic-B",
                          "ephemeral-B");
            oss << buf;
            for (const GraphSubgraph &sub : g.subgraphs) {
                // A reused group shows the group it repeats: "#3".
                char tuned[24];
                if (sub.reusedFrom >= 0)
                    std::snprintf(tuned, sizeof(tuned), "#%lld",
                                  (long long)sub.reusedFrom);
                else
                    std::snprintf(tuned, sizeof(tuned), "%s",
                                  sub.tuned ? "yes" : "no");
                std::snprintf(buf, sizeof(buf),
                              "  %-14s %7lld %6s %12.3e %14lld %12lld\n",
                              sub.name.c_str(), (long long)sub.members,
                              tuned, sub.seconds,
                              (long long)sub.trafficBytes,
                              (long long)sub.ephemeralBytes);
                oss << buf;
            }
            const bool anyReused = std::any_of(
                g.subgraphs.begin(), g.subgraphs.end(),
                [](const GraphSubgraph &sub) { return sub.reusedFrom >= 0; });
            if (anyReused)
                oss << "  (#N: reused the report of group N, counted "
                       "from 0)\n";
        }
    }

    if (report.costModel.any()) {
        const CostModelBreakdown &c = report.costModel;
        oss << "\nlearned cost model:\n";
        std::snprintf(buf, sizeof(buf),
                      "  warm starts %llu, refits %llu, prune events "
                      "%llu (kept %llu, dropped %llu)\n",
                      (unsigned long long)c.warmStarts,
                      (unsigned long long)c.refits,
                      (unsigned long long)c.pruneEvents,
                      (unsigned long long)c.kept,
                      (unsigned long long)c.dropped);
        oss << buf;
    }

    if (report.certificates.any()) {
        const CertificateBreakdown &c = report.certificates;
        oss << "\nlegality certificates:\n";
        std::snprintf(buf, sizeof(buf),
                      "  proven %llu, refuted %llu, unknown %llu\n",
                      (unsigned long long)c.proven,
                      (unsigned long long)c.refuted,
                      (unsigned long long)c.unknown);
        oss << buf;
        for (const CertificateEntry &entry : c.entries) {
            std::snprintf(buf, sizeof(buf),
                          "  %-20s %-8s %4lld obligations "
                          "(%lld refuted, %lld unknown)\n",
                          entry.op.empty() ? "?" : entry.op.c_str(),
                          entry.verdict.c_str(),
                          (long long)entry.obligations,
                          (long long)entry.refuted,
                          (long long)entry.unknown);
            oss << buf;
        }
    }

    if (!report.curve.empty() && curvePoints > 0) {
        oss << "\nbest GFLOPS vs. trials (Fig. 7 series):\n";
        // Sample evenly, always keeping the final point.
        size_t n = report.curve.size();
        size_t step = std::max<size_t>(1, n / (size_t)curvePoints);
        for (size_t i = 0; i < n; i += step) {
            size_t j = std::min(i + step - 1, n - 1);
            if (i + step >= n)
                j = n - 1;
            std::snprintf(buf, sizeof(buf), "  trial %4d  %10.1f\n",
                          report.curve[j].first, report.curve[j].second);
            oss << buf;
            if (j == n - 1)
                break;
        }
    }
    return oss.str();
}

std::string
traceReportJson(const TraceReport &report)
{
    std::ostringstream oss;
    oss << "{\"op\":\"" << report.op << "\",\"device\":\"" << report.device
        << "\",\"method\":\"" << report.method << "\",\"seed\":"
        << report.seed << ",\"events\":" << report.events
        << ",\"trials\":" << report.trials
        << ",\"bestGflops\":" << formatTraceDouble(report.bestGflops)
        << ",\"simSeconds\":" << formatTraceDouble(report.simSeconds)
        << ",\"phases\":[";
    for (size_t i = 0; i < report.phases.size(); ++i) {
        const PhaseBreakdown &p = report.phases[i];
        if (i)
            oss << ",";
        oss << "{\"name\":\"" << p.name << "\",\"spans\":" << p.spans
            << ",\"points\":" << p.points
            << ",\"simSeconds\":" << formatTraceDouble(p.simSeconds)
            << ",\"wallNs\":" << p.wallNs << "}";
    }
    oss << "]";
    // Sections below are emitted only when non-empty: a pure
    // exploration trace's JSON has no "serve"/"graph"/"verifyRejects"/
    // "costmodel"/"certificates" keys at all.
    if (!report.verifyRejects.empty()) {
        oss << ",\"verifyRejects\":{";
        for (size_t i = 0; i < report.verifyRejects.size(); ++i) {
            if (i)
                oss << ",";
            oss << "\"" << report.verifyRejects[i].first
                << "\":" << report.verifyRejects[i].second;
        }
        oss << "}";
    }
    const ServeBreakdown &s = report.serve;
    if (s.any()) {
        oss << ",\"serve\":{";
        oss << "\"admitted\":" << s.admitted << ",\"shed\":" << s.shed
            << ",\"brownouts\":" << s.brownouts
            << ",\"breakerRejects\":" << s.breakerRejects
            << ",\"breakerOpens\":" << s.breakerOpens
            << ",\"breakerCloses\":" << s.breakerCloses
            << ",\"reasons\":{";
        for (size_t i = 0; i < s.reasons.size(); ++i) {
            if (i)
                oss << ",";
            oss << "\"" << s.reasons[i].first
                << "\":" << s.reasons[i].second;
        }
        oss << "},\"queueDepths\":[";
        for (size_t i = 0; i < s.queueDepths.size(); ++i) {
            if (i)
                oss << ",";
            oss << "[" << s.queueDepths[i].first << ","
                << s.queueDepths[i].second << "]";
        }
        oss << "]}";
    }
    const GraphBreakdown &g = report.graph;
    if (g.any()) {
        oss << ",\"graph\":{";
        oss << "\"runs\":" << g.runs << ",\"dag\":\"" << g.dag
            << "\",\"fingerprint\":" << g.fingerprint
            << ",\"nodes\":" << g.nodes << ",\"groups\":" << g.groups
            << ",\"trafficBytes\":" << g.trafficBytes
            << ",\"ephemeralBytes\":" << g.ephemeralBytes
            << ",\"subgraphs\":[";
        for (size_t i = 0; i < g.subgraphs.size(); ++i) {
            const GraphSubgraph &sub = g.subgraphs[i];
            if (i)
                oss << ",";
            oss << "{\"name\":\"" << sub.name
                << "\",\"members\":" << sub.members
                << ",\"tuned\":" << (sub.tuned ? "true" : "false");
            if (sub.reusedFrom >= 0)
                oss << ",\"reusedFrom\":" << sub.reusedFrom;
            oss << ",\"seconds\":" << formatTraceDouble(sub.seconds)
                << ",\"trafficBytes\":" << sub.trafficBytes
                << ",\"ephemeralBytes\":" << sub.ephemeralBytes << "}";
        }
        oss << "]}";
    }
    if (report.costModel.any()) {
        const CostModelBreakdown &c = report.costModel;
        oss << ",\"costmodel\":{\"warmStarts\":" << c.warmStarts
            << ",\"refits\":" << c.refits
            << ",\"pruneEvents\":" << c.pruneEvents
            << ",\"kept\":" << c.kept << ",\"dropped\":" << c.dropped
            << "}";
    }
    if (report.certificates.any()) {
        const CertificateBreakdown &c = report.certificates;
        oss << ",\"certificates\":{\"proven\":" << c.proven
            << ",\"refuted\":" << c.refuted
            << ",\"unknown\":" << c.unknown << ",\"entries\":[";
        for (size_t i = 0; i < c.entries.size(); ++i) {
            const CertificateEntry &entry = c.entries[i];
            if (i)
                oss << ",";
            oss << "{\"op\":\"" << entry.op << "\",\"verdict\":\""
                << entry.verdict
                << "\",\"obligations\":" << entry.obligations
                << ",\"refuted\":" << entry.refuted
                << ",\"unknown\":" << entry.unknown << "}";
        }
        oss << "]}";
    }
    oss << ",\"curve\":[";
    for (size_t i = 0; i < report.curve.size(); ++i) {
        if (i)
            oss << ",";
        oss << "[" << report.curve[i].first << ","
            << formatTraceDouble(report.curve[i].second) << "]";
    }
    oss << "]}";
    return oss.str();
}

} // namespace ft
