/**
 * @file
 * Crash-safe record journal: the shared durable-file format behind the
 * tuning cache, exploration checkpoints, and dispatch tables.
 *
 * A journal is a versioned header line followed by CRC32-framed records:
 *
 *   ftjrnl v1 <kind>\n
 *   f <payload-bytes> <crc32-hex>\n
 *   <payload bytes>\n
 *   f ...
 *
 * The payload is arbitrary bytes (newlines allowed); the frame line
 * carries its exact length and checksum, so a reader can prove each
 * record intact without trusting the payload's own structure. Because
 * frames are self-delimiting and appended in order, a crash mid-write
 * can only produce a *torn tail*: some prefix of the file is a valid
 * journal and everything after the last intact frame is garbage.
 * parseJournal() recovers exactly that prefix and reports the tear as a
 * structured diagnostic; truncateToValid() repairs the file in place so
 * later appends start from a clean frame boundary.
 *
 * Two write modes cover the adopters' needs:
 *  - JournalWriter assembles a whole journal in memory and commits it
 *    atomically (temp file + rename) — for rewrite-style stores like
 *    the tuning cache and dispatch tables.
 *  - journalAppend() appends one frame to an existing journal file —
 *    for incremental stores like exploration checkpoints, where losing
 *    only the in-flight frame on a crash is the contract.
 */
#ifndef FLEXTENSOR_SUPPORT_JOURNAL_H
#define FLEXTENSOR_SUPPORT_JOURNAL_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ft {

/** IEEE CRC-32 (the zlib polynomial) of `bytes`, seedable for chains. */
uint32_t crc32(std::string_view bytes, uint32_t seed = 0);

/** True when `bytes` begin with a journal header ("ftjrnl "). */
bool looksLikeJournal(std::string_view bytes);

/** Everything a reader learns from one journal image. */
struct JournalContents
{
    /** Header parsed and version understood. When false, the file is
     *  not a journal at all and `diag` says why. */
    bool valid = false;
    std::string kind;                 ///< adopter format tag from header
    std::vector<std::string> records; ///< intact frame payloads, in order
    /** True when bytes remain past the last intact frame (torn tail or
     *  in-place corruption; everything before it was recovered). */
    bool torn = false;
    size_t validBytes = 0; ///< byte offset of the last intact frame end
    /** One-line structured diagnostic ("code=FT-JRNL-... ...") when the
     *  image is torn or not a valid journal; empty when clean. */
    std::string diag;
};

/** Parse a journal image; never throws. Recovery semantics above. */
JournalContents parseJournal(std::string_view bytes);

/**
 * Read and parse a journal file. A missing/unreadable file yields
 * valid=false with a diagnostic; callers decide how loud to be.
 */
JournalContents readJournal(const std::string &path);

/**
 * Truncate `path` to `contents.validBytes`, discarding a torn tail so
 * the next append starts on a frame boundary. Returns false on I/O
 * error or when contents is not a valid journal.
 */
bool truncateToValid(const std::string &path,
                     const JournalContents &contents);

/** In-memory journal assembly with an atomic temp+rename commit. */
class JournalWriter
{
  public:
    /** @param kind adopter format tag written into the header (one
     *  token, no whitespace). */
    explicit JournalWriter(std::string kind);

    /** Append one framed record. */
    void append(std::string_view payload);

    /** The serialized journal so far (header + frames). */
    const std::string &bytes() const { return buf_; }

    /**
     * Write the journal to `path` via temp file + atomic rename, the
     * same crash-safe pattern as TuningCache::save. Returns false on
     * I/O error (the temp file is removed).
     */
    bool commit(const std::string &path) const;

  private:
    std::string buf_;
};

/** Render one frame (frame line + payload + newline). */
std::string journalFrame(std::string_view payload);

/** The header line for `kind`, newline-terminated. */
std::string journalHeader(const std::string &kind);

/**
 * Append one frame to the journal at `path`. Creates the file (with a
 * header) when missing or empty; rewrites it when it holds a non-journal
 * or different-kind file; truncates a torn tail before appending so the
 * new frame lands on a valid boundary. A crash during the append leaves
 * at worst a torn tail that the next read recovers from.
 */
bool journalAppend(const std::string &path, const std::string &kind,
                   std::string_view payload);

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_JOURNAL_H
