/**
 * @file
 * Transformation-legality certificates: machine-checkable proofs that a
 * lowered schedule (and a fusion partition) is equivalent to the
 * reference program.
 *
 * A certificate is a list of named obligations, one per transformation
 * the schedule applied, each carrying a verdict:
 *
 *   Proven  — the obligation holds; the detail records the argument
 *             (exact bijectivity of the split map, absence of carried
 *             dependences on a binding, guard exactness, ...).
 *   Refuted — a concrete witness violates it; the code field names the
 *             FT-DEP-* / FT-OOB-* diagnostic a refutation reports under.
 *   Unknown — the engine's exact budget was exceeded and the
 *             conservative criterion could not decide. Unknown never
 *             certifies: only a fully Proven certificate claims
 *             equivalence.
 *
 * Soundness contract (enforced by the differential oracle in
 * tests/test_certify.cc): a schedule whose certificate verdict is Proven
 * must match the reference interpreter bit-for-bit on integer-valued
 * inputs; a Refuted schedule must either mismatch or be conservatively
 * rejected by the structural verifier.
 *
 * Certification is read-only over nests and partitions: attaching or
 * skipping it never changes tuning outcomes (the determinism digests
 * pin this).
 */
#ifndef FLEXTENSOR_ANALYSIS_VERIFY_CERTIFICATE_H
#define FLEXTENSOR_ANALYSIS_VERIFY_CERTIFICATE_H

#include <string>
#include <vector>

#include "analysis/verify/deps.h"
#include "schedule/config.h"
#include "schedule/loop_nest.h"
#include "sim/hw_spec.h"

namespace ft {

namespace graph {
struct ComputeDag;
struct Partition;
} // namespace graph

namespace verify {

/** Outcome of one obligation (and of a whole certificate). */
enum class Verdict { Proven, Refuted, Unknown };

/** Lower-case verdict name used in JSON and human output. */
const char *verdictName(Verdict v);

/** One per-transformation proof obligation. */
struct Obligation
{
    std::string id;        ///< stable identifier ("split/k", "guard/m", ...)
    std::string transform; ///< primitive proved legal ("split", "binding", ...)
    std::string code;      ///< diagnostic code a refutation reports under
    Verdict verdict = Verdict::Unknown;
    std::string detail;    ///< proof sketch or refutation witness

    std::string toJson() const;
};

/** Certificate for one lowered schedule. */
struct ScheduleCertificate
{
    std::string op;     ///< scheduled compute node name
    std::string device; ///< target device name
    Verdict verdict = Verdict::Unknown;
    std::vector<Obligation> obligations;

    /** Number of obligations with the given verdict. */
    int count(Verdict v) const;
    /** True only for a fully Proven certificate. */
    bool equivalent() const { return verdict == Verdict::Proven; }

    std::string toJson() const;
};

/**
 * Certify one lowered schedule against the reference program: exact
 * dependence obligations (deps.h) per axis and per binding, the guard
 * exactness proof for imperfect tiles, and the access-bounds proof.
 * `config` is optional context (unused by the proofs themselves).
 * Deterministic and read-only.
 */
ScheduleCertificate certifySchedule(const Scheduled &s,
                                    const Target &target,
                                    const OpConfig *config = nullptr);

/** Certificate for one fusion group (FT-DEP-006 obligations). */
struct GroupCertificate
{
    int group = 0; ///< group index within the partition
    Verdict verdict = Verdict::Unknown;
    std::vector<Obligation> obligations;

    std::string toJson() const;
};

/** Certificate for a whole fusion partition. */
struct PartitionCertificate
{
    Verdict verdict = Verdict::Unknown;
    /** Partition-level obligations (assignment coverage). */
    std::vector<Obligation> obligations;
    std::vector<GroupCertificate> groups;

    int groupCount(Verdict v) const;
    bool equivalent() const { return verdict == Verdict::Proven; }

    std::string toJson() const;
};

/**
 * Certify a fusion partition: per group, producer→consumer streaming
 * order, retention-window sufficiency of the ring buffers, ephemeral
 * non-escape, anchor uniqueness, and working-set feasibility; plus the
 * partition-level assignment coverage. Refutations carry FT-DEP-006.
 */
PartitionCertificate certifyPartition(const graph::ComputeDag &dag,
                                      const graph::Partition &partition,
                                      const Target &target);

/**
 * certifyPartition(dag, partition, target).equivalent(), without the
 * certificate: no obligation text is built unless a check fails, and it
 * stops at the first failure. `consumers` is dag.consumers(), which the
 * partitioner already holds. The partitioner's legality gate.
 */
bool partitionCertifies(const graph::ComputeDag &dag,
                        const graph::Partition &partition,
                        const Target &target,
                        const std::vector<std::vector<int>> &consumers);

} // namespace verify
} // namespace ft

#endif // FLEXTENSOR_ANALYSIS_VERIFY_CERTIFICATE_H
