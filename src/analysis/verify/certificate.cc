/**
 * @file
 * Certificate construction (see certificate.h).
 *
 * Every obligation is derived from the exact dependence engine (deps.h)
 * or re-proved from first principles over the partition structures; the
 * certificate never trusts a flag another pass set without checking it.
 */
#include <sstream>

#include "analysis/verify/certificate.h"
#include "analysis/verify/verify.h"
#include "graph/partition.h"

namespace ft {
namespace verify {

namespace {

void
appendJsonEscaped(std::ostringstream &oss, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"': oss << "\\\""; break;
          case '\\': oss << "\\\\"; break;
          case '\n': oss << "\\n"; break;
          case '\t': oss << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                oss << buf;
            } else {
                oss << c;
            }
        }
    }
}

void
appendJsonField(std::ostringstream &oss, const char *key,
                const std::string &value, bool last = false)
{
    oss << "\"" << key << "\":\"";
    appendJsonEscaped(oss, value);
    oss << "\"" << (last ? "" : ",");
}

/** Conjunction of verdicts: any Refuted wins, then any Unknown. */
Verdict
conjoin(Verdict a, Verdict b)
{
    if (a == Verdict::Refuted || b == Verdict::Refuted)
        return Verdict::Refuted;
    if (a == Verdict::Unknown || b == Verdict::Unknown)
        return Verdict::Unknown;
    return Verdict::Proven;
}

Verdict
verdictOf(const std::vector<Obligation> &obligations)
{
    Verdict v = Verdict::Proven;
    for (const Obligation &o : obligations)
        v = conjoin(v, o.verdict);
    return v;
}

std::string
obligationsJson(const std::vector<Obligation> &obligations)
{
    std::string s = "[";
    for (size_t i = 0; i < obligations.size(); ++i) {
        if (i)
            s += ",";
        s += obligations[i].toJson();
    }
    s += "]";
    return s;
}

Verdict
triVerdict(Tri t)
{
    switch (t) {
    case Tri::True:
        return Verdict::Proven;
    case Tri::False:
        return Verdict::Refuted;
    case Tri::Unknown:
        return Verdict::Unknown;
    }
    return Verdict::Unknown;
}

} // namespace

const char *
verdictName(Verdict v)
{
    switch (v) {
    case Verdict::Proven:
        return "proven";
    case Verdict::Refuted:
        return "refuted";
    case Verdict::Unknown:
        return "unknown";
    }
    return "unknown";
}

std::string
Obligation::toJson() const
{
    std::ostringstream oss;
    oss << "{";
    appendJsonField(oss, "id", id);
    appendJsonField(oss, "transform", transform);
    appendJsonField(oss, "code", code);
    appendJsonField(oss, "verdict", verdictName(verdict));
    appendJsonField(oss, "detail", detail, /*last=*/true);
    oss << "}";
    return oss.str();
}

int
ScheduleCertificate::count(Verdict v) const
{
    int n = 0;
    for (const Obligation &o : obligations)
        n += o.verdict == v ? 1 : 0;
    return n;
}

std::string
ScheduleCertificate::toJson() const
{
    std::ostringstream oss;
    oss << "{";
    appendJsonField(oss, "op", op);
    appendJsonField(oss, "device", device);
    appendJsonField(oss, "verdict", verdictName(verdict));
    oss << "\"obligations\":" << obligationsJson(obligations) << "}";
    return oss.str();
}

ScheduleCertificate
certifySchedule(const Scheduled &s, const Target &target,
                const OpConfig *config)
{
    (void)config;
    ScheduleCertificate cert;
    cert.device = target.deviceName();
    const LoopNest &nest = s.nest;
    if (!nest.op || nest.op->isPlaceholder()) {
        cert.verdict = Verdict::Unknown;
        return cert;
    }
    cert.op = nest.op->name();

    DependenceInfo info = analyzeDependences(nest);

    // Per-axis split obligations: the live iteration map must be a
    // bijection onto [0, extent). Guarded axes instead get the guard
    // exactness obligation (FT-DEP-005), which subsumes both halves
    // under the `value < extent` guard.
    for (const AxisRelation &a : info.axes) {
        const std::string axis = a.origin->name;
        const int64_t extent = a.origin->extent;
        const bool reduceAxis = a.origin->kind == IterKind::Reduce;

        if (a.guarded) {
            Obligation o;
            o.id = "guard/" + axis;
            o.transform = "guard";
            o.code = kDepGuardInexact;
            Verdict v = conjoin(triVerdict(a.liveInjective),
                                triVerdict(a.covers));
            if (a.range.lo != 0 || !a.positiveStrides)
                v = Verdict::Refuted;
            o.verdict = v;
            if (v == Verdict::Proven) {
                o.detail = "guard `" + axis + " < " +
                           std::to_string(extent) +
                           "` cuts exactly the overshoot: live map is a "
                           "bijection onto [0, " + std::to_string(extent) +
                           ") and every stride is positive (monotone "
                           "prune sound)";
            } else if (a.range.lo != 0) {
                o.detail = "realized range starts at " +
                           std::to_string(a.range.lo) +
                           "; the guard only cuts the top";
            } else if (!a.positiveStrides) {
                o.detail = "non-positive sub-loop stride defeats the "
                           "monotone guard prune";
            } else if (a.liveInjective == Tri::False) {
                o.detail = "live iteration " +
                           std::to_string(a.duplicateWitness) +
                           " below the guard runs twice";
            } else if (a.covers == Tri::False) {
                o.detail = "live iteration " +
                           std::to_string(a.holeWitness) +
                           " is never reached (guard cuts too much)";
            } else {
                o.detail = "axis exceeds the exact enumeration budget";
            }
            cert.obligations.push_back(std::move(o));
            continue;
        }

        {
            Obligation o;
            o.id = "split/" + axis;
            o.transform = "split";
            o.code = reduceAxis ? kDepReduceDuplicate : kDepSpatialDuplicate;
            o.verdict = triVerdict(a.liveInjective);
            if (o.verdict == Verdict::Proven) {
                o.detail = a.exact
                               ? "exact enumeration: all " +
                                     std::to_string(a.tuples) +
                                     " tuples map to distinct indices"
                               : "stride dominance: each stride exceeds "
                                 "the inner sub-loops' span";
            } else if (o.verdict == Verdict::Refuted) {
                o.detail = "index " + std::to_string(a.duplicateWitness) +
                           " is reached by two iteration tuples (" +
                           (reduceAxis ? "duplicated reduction term"
                                       : "duplicated output write") +
                           ")";
            } else {
                o.detail = "axis exceeds the exact enumeration budget";
            }
            cert.obligations.push_back(std::move(o));
        }
        {
            Obligation o;
            o.id = "domain/" + axis;
            o.transform = "split";
            o.code = kDepDomainMismatch;
            Verdict v = triVerdict(a.covers);
            if (a.overshoots || a.range.lo < 0)
                v = Verdict::Refuted;
            o.verdict = v;
            if (v == Verdict::Proven) {
                o.detail = "live image is exactly [0, " +
                           std::to_string(extent) + ")";
            } else if (a.covers == Tri::False) {
                o.detail = "iteration " + std::to_string(a.holeWitness) +
                           " of [0, " + std::to_string(extent) +
                           ") is never reached";
            } else if (a.overshoots || a.range.lo < 0) {
                o.detail = "unguarded iterations run outside [0, " +
                           std::to_string(extent) + ") (realized span [" +
                           std::to_string(a.range.lo) + ", " +
                           std::to_string(a.range.hi) + "])";
            } else {
                o.detail = "axis exceeds the exact enumeration budget";
            }
            cert.obligations.push_back(std::move(o));
        }
    }

    // Binding obligations: concurrent annotations must not carry a
    // dependence; unroll is an in-order serial expansion.
    for (const SubLoop &l : nest.loops) {
        if (l.extent <= 1)
            continue;
        if (isConcurrentAnno(l.anno)) {
            Obligation o;
            o.id = "binding/" + l.name;
            o.transform = "binding";
            o.code = kDepConcurrentCarried;
            auto deps = info.carriedBy(&l);
            const AxisRelation *a =
                l.origin ? info.axisOf(l.origin) : nullptr;
            if (!deps.empty()) {
                o.verdict = Verdict::Refuted;
                o.detail = "carries a " +
                           std::string(depKindName(deps[0]->kind)) +
                           " dependence (distance " +
                           std::to_string(deps[0]->distance) +
                           ", direction '<') under annotation '" +
                           annoName(l.anno) + "': " + deps[0]->note;
            } else if (a && a->liveInjective == Tri::Unknown) {
                o.verdict = Verdict::Unknown;
                o.detail = "axis injectivity undecided: a hidden output "
                           "dependence cannot be ruled out";
            } else {
                o.verdict = Verdict::Proven;
                o.detail = "iterations of '" + l.name +
                           "' touch pairwise-distinct output elements "
                           "and carry no dependence";
            }
            cert.obligations.push_back(std::move(o));
        } else if (l.anno == LoopAnno::Unroll) {
            Obligation o;
            o.id = "unroll/" + l.name;
            o.transform = "unroll";
            o.code = kDepConcurrentCarried;
            o.verdict = Verdict::Proven;
            o.detail = "unrolling expands iterations in serial program "
                       "order; every carried dependence keeps its "
                       "direction";
            cert.obligations.push_back(std::move(o));
        }
    }

    // Reorder obligation: once every axis map is a live bijection and no
    // concurrent binding carries a dependence, the nest's loop order is
    // a permutation of independent iterations interleaved with
    // order-insensitive accumulator updates — any order is legal.
    {
        Obligation o;
        o.id = "order/nest";
        o.transform = "reorder";
        o.code = kDepConcurrentCarried;
        o.verdict = verdictOf(cert.obligations);
        o.detail =
            o.verdict == Verdict::Proven
                ? "per-axis bijectivity + dependence-free bindings make "
                  "every sub-loop interleaving equivalent (the reduction "
                  "update is the only carried dependence and is "
                  "order-insensitive on exact inputs)"
                : "depends on the refuted/undecided obligations above";
        cert.obligations.push_back(std::move(o));
    }

    // Access-bounds obligation, from the guard-aware bounds prover.
    {
        Obligation o;
        o.id = "bounds/nest";
        o.transform = "bounds";
        DiagReport bounds;
        checkAccessBounds(nest, bounds);
        if (bounds.hasError()) {
            const Diag *first = bounds.firstError();
            o.code = first->code;
            o.verdict = Verdict::Refuted;
            o.detail = first->message;
        } else {
            o.code = kOobOverflow;
            o.verdict = Verdict::Proven;
            o.detail = "every tensor access stays within its buffer "
                       "extents under the realized variable ranges";
        }
        cert.obligations.push_back(std::move(o));
    }

    cert.verdict = verdictOf(cert.obligations);
    return cert;
}

std::string
GroupCertificate::toJson() const
{
    std::ostringstream oss;
    oss << "{\"group\":" << group << ",";
    appendJsonField(oss, "verdict", verdictName(verdict));
    oss << "\"obligations\":" << obligationsJson(obligations) << "}";
    return oss.str();
}

int
PartitionCertificate::groupCount(Verdict v) const
{
    int n = 0;
    for (const GroupCertificate &g : groups)
        n += g.verdict == v ? 1 : 0;
    return n;
}

std::string
PartitionCertificate::toJson() const
{
    std::ostringstream oss;
    oss << "{";
    appendJsonField(oss, "verdict", verdictName(verdict));
    oss << "\"obligations\":" << obligationsJson(obligations)
        << ",\"groups\":[";
    for (size_t i = 0; i < groups.size(); ++i) {
        if (i)
            oss << ",";
        oss << groups[i].toJson();
    }
    oss << "]}";
    return oss.str();
}

namespace {

/**
 * Record one partition obligation of group `gi` (-1: the partition
 * level) into `obligations`, or, when that is null (no certificate is
 * returned), only conjoin its verdict into `verdict`: then no id or
 * detail text is built for it. `refuted` is the witness of a failed
 * check; `proven()` builds the detail of a Proven one.
 */
template <class ProvenDetail>
void
recordFusion(std::vector<Obligation> *obligations, Verdict &verdict,
             const char *name, int gi, Verdict v, std::string refuted,
             ProvenDetail &&proven)
{
    verdict = conjoin(verdict, v);
    if (!obligations)
        return;
    Obligation o;
    o.id = std::string("fusion/") + name;
    if (gi >= 0)
        o.id += "/g" + std::to_string(gi);
    o.transform = "fusion";
    o.code = kDepFusionIllegal;
    o.verdict = v;
    o.detail = v == Verdict::Proven ? std::string(proven())
                                    : std::move(refuted);
    obligations->push_back(std::move(o));
}

/**
 * The one checking body of certifyPartition and partitionCertifies.
 * With `cert` every obligation is recorded there and the result is its
 * verdict; without, the check stops at the first obligation that is
 * not Proven. `consumers` is dag.consumers().
 */
Verdict
checkPartition(const graph::ComputeDag &dag,
               const graph::Partition &partition, const Target &target,
               const std::vector<std::vector<int>> &consumers,
               PartitionCertificate *cert)
{
    using graph::FusionGroup;
    const int numNodes = static_cast<int>(dag.nodes.size());
    Verdict all = Verdict::Proven;

    // Partition-level: every compute node in exactly one group, Input
    // nodes in none. Without this, "equivalent to the reference graph"
    // is not even well-posed.
    {
        Verdict v = Verdict::Proven;
        std::string why;
        std::vector<int> owners(dag.nodes.size(), 0);
        for (const FusionGroup &g : partition.groups)
            for (int id : g.members) {
                if (id < 0 || id >= numNodes) {
                    v = Verdict::Refuted;
                    why = "member id " + std::to_string(id) +
                          " is not a node of the DAG";
                    break;
                }
                owners[static_cast<size_t>(id)]++;
            }
        if (v == Verdict::Proven) {
            for (size_t id = 0; id < dag.nodes.size(); ++id) {
                const bool isInput =
                    dag.nodes[id].kind == graph::NodeKind::Input;
                const int expect = isInput ? 0 : 1;
                if (owners[id] != expect) {
                    v = Verdict::Refuted;
                    why = "node " + std::to_string(id) + " ('" +
                          dag.nodes[id].name + "') appears in " +
                          std::to_string(owners[id]) +
                          " group(s), expected " + std::to_string(expect);
                    break;
                }
            }
        }
        recordFusion(cert ? &cert->obligations : nullptr, all, "cover", -1,
                     v, std::move(why), [] {
                         return "every compute node is assigned to "
                                "exactly one group and Input nodes to none";
                     });
        if (!cert && all != Verdict::Proven)
            return all;
    }

    // groupOf[id] == gi while group gi is checked: membership in O(1).
    std::vector<int> groupOf(dag.nodes.size(), -1);
    for (size_t gi = 0; gi < partition.groups.size(); ++gi) {
        const FusionGroup &g = partition.groups[gi];
        const int gid = static_cast<int>(gi);
        for (int id : g.members)
            if (id >= 0 && id < numNodes)
                groupOf[static_cast<size_t>(id)] = gid;
        auto inGroup = [&](int id) {
            return groupOf[static_cast<size_t>(id)] == gid;
        };
        std::vector<Obligation> *obligations = nullptr;
        if (cert) {
            cert->groups.emplace_back();
            cert->groups.back().group = gid;
            obligations = &cert->groups.back().obligations;
        }
        Verdict groupVerdict = Verdict::Proven;

        // Streaming order: members ascending (node ids are topological)
        // and every intra-group producer precedes its consumer, so the
        // executor's single pass visits producers first.
        {
            Verdict v = Verdict::Proven;
            std::string why;
            for (size_t i = 0; i + 1 < g.members.size(); ++i) {
                if (g.members[i] >= g.members[i + 1]) {
                    v = Verdict::Refuted;
                    why = "members are not strictly ascending at "
                          "position " + std::to_string(i) +
                          ": the streaming pass would consume a "
                          "row before its producer emits it";
                    break;
                }
            }
            if (v == Verdict::Proven) {
                for (int id : g.members) {
                    for (int p : dag.nodes[static_cast<size_t>(id)].inputs)
                        if (inGroup(p) && p >= id) {
                            v = Verdict::Refuted;
                            why = "intra-group producer " +
                                  std::to_string(p) +
                                  " does not precede consumer " +
                                  std::to_string(id);
                        }
                }
            }
            recordFusion(obligations, groupVerdict, "order", gid, v,
                         std::move(why), [] {
                             return "members ascend in topological "
                                    "order; every intra-group flow "
                                    "dependence points forward";
                         });
        }

        // Anchor uniqueness: the streaming executor tunes and drives
        // exactly one heavy anchor, which must lead the group.
        {
            Verdict v = Verdict::Proven;
            std::string why;
            int heavy = 0;
            for (size_t i = 0; i < g.members.size(); ++i) {
                const graph::DagNode &n =
                    dag.nodes[static_cast<size_t>(g.members[i])];
                if (!n.isHeavy())
                    continue;
                ++heavy;
                if (i != 0) {
                    v = Verdict::Refuted;
                    why = "heavy anchor '" + n.name +
                          "' is not the group's first member";
                }
            }
            if (heavy > 1) {
                v = Verdict::Refuted;
                why = "group has " + std::to_string(heavy) +
                      " heavy anchors; the streaming executor can "
                      "drive only one";
            }
            recordFusion(obligations, groupVerdict, "anchor", gid, v,
                         std::move(why), [heavy] {
                             return heavy ? "single heavy anchor leads "
                                            "the group"
                                          : "anchor-free group";
                         });
        }

        // Ephemeral non-escape: a tensor that never reaches DRAM must
        // provably never be needed outside its group (including as the
        // graph output).
        {
            Verdict v = Verdict::Proven;
            std::string why;
            for (size_t i = 0;
                 i < g.members.size() && i < g.ephemeral.size(); ++i) {
                if (!g.ephemeral[i])
                    continue;
                const int id = g.members[i];
                if (dag.isOutput(id)) {
                    v = Verdict::Refuted;
                    why = "ephemeral member " + std::to_string(id) +
                          " ('" + dag.nodes[static_cast<size_t>(id)].name +
                          "') is a graph output: its value escapes "
                          "but is never written to DRAM";
                    break;
                }
                for (int c : consumers[static_cast<size_t>(id)]) {
                    if (!inGroup(c)) {
                        v = Verdict::Refuted;
                        why = "ephemeral member " + std::to_string(id) +
                              " is consumed by out-of-group node " +
                              std::to_string(c) +
                              ": the consumer would read a tensor that "
                              "never reaches DRAM";
                        break;
                    }
                }
                if (v == Verdict::Refuted)
                    break;
            }
            recordFusion(obligations, groupVerdict, "escape", gid, v,
                         std::move(why), [] {
                             return "every ephemeral tensor is consumed "
                                    "only inside the group";
                         });
        }

        // Retention windows: for each intra-group edge the executor's
        // ring buffer holds consumerWindowRows(consumer) producer rows;
        // that window must cover what one consumer row reads, and rows
        // must be consumed monotonically (stride >= 1) so eviction never
        // discards a row that is still needed.
        {
            Verdict v = Verdict::Proven;
            std::string why;
            for (int id : g.members) {
                const graph::DagNode &n =
                    dag.nodes[static_cast<size_t>(id)];
                bool hasIntraProducer = false;
                for (int p : n.inputs)
                    hasIntraProducer = hasIntraProducer || inGroup(p);
                if (!hasIntraProducer)
                    continue;
                const int64_t window = graph::consumerWindowRows(n);
                const int64_t needed =
                    n.kind == graph::NodeKind::Pool ? n.kernel : 1;
                if (window < needed) {
                    v = Verdict::Refuted;
                    why = "consumer '" + n.name + "' retains " +
                          std::to_string(window) +
                          " producer row(s) but one output row reads " +
                          std::to_string(needed);
                    break;
                }
                if (n.kind == graph::NodeKind::Pool && n.stride < 1) {
                    v = Verdict::Refuted;
                    why = "consumer '" + n.name + "' has stride " +
                          std::to_string(n.stride) +
                          ": row consumption is not monotone, so "
                          "ring eviction would discard live rows";
                    break;
                }
            }
            recordFusion(obligations, groupVerdict, "window", gid, v,
                         std::move(why), [] {
                             return "each ring buffer's retention window "
                                    "covers one output row's reads and "
                                    "rows are consumed monotonically";
                         });
        }

        // Working set: the retention windows must actually fit on chip;
        // recomputed from the roofline model, not read off g.cost.
        {
            const graph::GroupCost cost = graph::rooflineGroupCost(
                dag, consumers, g.members, g.ephemeral, target);
            const Verdict v =
                cost.feasible ? Verdict::Proven : Verdict::Refuted;
            std::string why;
            if (!cost.feasible)
                why = "streaming working set (" +
                      std::to_string(cost.workingSetBytes) +
                      " bytes) exceeds tier-2 capacity: the ring "
                      "buffers cannot be allocated on chip";
            recordFusion(obligations, groupVerdict, "capacity", gid, v,
                         std::move(why), [&cost] {
                             return "streaming working set (" +
                                    std::to_string(cost.workingSetBytes) +
                                    " bytes) fits within tier-2 capacity";
                         });
        }

        if (cert)
            cert->groups.back().verdict = groupVerdict;
        all = conjoin(all, groupVerdict);
        if (!cert && all != Verdict::Proven)
            return all;
    }
    return all;
}

} // namespace

PartitionCertificate
certifyPartition(const graph::ComputeDag &dag,
                 const graph::Partition &partition, const Target &target)
{
    PartitionCertificate cert;
    cert.verdict =
        checkPartition(dag, partition, target, dag.consumers(), &cert);
    return cert;
}

bool
partitionCertifies(const graph::ComputeDag &dag,
                   const graph::Partition &partition, const Target &target,
                   const std::vector<std::vector<int>> &consumers)
{
    return checkPartition(dag, partition, target, consumers, nullptr) ==
           Verdict::Proven;
}

} // namespace verify
} // namespace ft
