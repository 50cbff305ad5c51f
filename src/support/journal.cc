#include "support/journal.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/logging.h"

namespace ft {

namespace {

constexpr char kMagic[] = "ftjrnl";
constexpr int kVersion = 1;

/** Byte-at-a-time table for the reflected IEEE polynomial 0xEDB88320. */
const std::array<uint32_t, 256> &
crcTable()
{
    static const std::array<uint32_t, 256> table = [] {
        std::array<uint32_t, 256> t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

/** Structured one-line diagnostic: "code=<c> path=- offset=<n> why=...". */
std::string
diagLine(const char *code, size_t offset, const std::string &why,
         size_t frames)
{
    std::ostringstream oss;
    oss << "code=" << code << " offset=" << offset << " frames=" << frames
        << " why=\"" << why << "\"";
    return oss.str();
}

} // namespace

uint32_t
crc32(std::string_view bytes, uint32_t seed)
{
    const auto &table = crcTable();
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (unsigned char ch : bytes)
        c = table[(c ^ ch) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

bool
looksLikeJournal(std::string_view bytes)
{
    const std::string_view magic("ftjrnl ");
    return bytes.substr(0, magic.size()) == magic;
}

std::string
journalHeader(const std::string &kind)
{
    std::ostringstream oss;
    oss << kMagic << " v" << kVersion << " " << kind << "\n";
    return oss.str();
}

std::string
journalFrame(std::string_view payload)
{
    std::ostringstream oss;
    oss << "f " << payload.size() << " " << hex32(crc32(payload)) << "\n";
    oss.write(payload.data(),
              static_cast<std::streamsize>(payload.size()));
    oss << "\n";
    return oss.str();
}

JournalContents
parseJournal(std::string_view bytes)
{
    JournalContents out;
    if (!looksLikeJournal(bytes)) {
        out.diag = diagLine("FT-JRNL-NOHDR", 0, "missing journal magic", 0);
        return out;
    }
    // Header line: "ftjrnl v1 <kind>\n".
    const size_t eol = bytes.find('\n');
    if (eol == std::string_view::npos) {
        out.diag = diagLine("FT-JRNL-NOHDR", 0, "unterminated header", 0);
        return out;
    }
    {
        std::istringstream hdr{std::string(bytes.substr(0, eol))};
        std::string magic, version;
        hdr >> magic >> version >> out.kind;
        if (magic != kMagic || version != "v1" || out.kind.empty()) {
            out.diag = diagLine("FT-JRNL-NOHDR", 0,
                                "unrecognized journal header version", 0);
            return out;
        }
    }
    out.valid = true;
    size_t pos = eol + 1;
    out.validBytes = pos;

    auto tear = [&](const char *code, const std::string &why) {
        out.torn = true;
        out.diag = diagLine(code, pos, why, out.records.size());
    };

    while (pos < bytes.size()) {
        const size_t frame_eol = bytes.find('\n', pos);
        if (frame_eol == std::string_view::npos) {
            tear("FT-JRNL-TORN", "unterminated frame line");
            return out;
        }
        std::istringstream line{
            std::string(bytes.substr(pos, frame_eol - pos))};
        std::string tag, crc_hex;
        uint64_t len = 0;
        line >> tag >> len >> crc_hex;
        if (line.fail() || tag != "f" || crc_hex.size() != 8) {
            tear("FT-JRNL-FRAME", "malformed frame line");
            return out;
        }
        const size_t payload_at = frame_eol + 1;
        if (payload_at + len + 1 > bytes.size()) {
            tear("FT-JRNL-TORN", "frame payload cut short");
            return out;
        }
        std::string_view payload = bytes.substr(payload_at, len);
        if (bytes[payload_at + len] != '\n') {
            tear("FT-JRNL-FRAME", "frame payload not newline-terminated");
            return out;
        }
        uint32_t declared = 0;
        if (std::sscanf(crc_hex.c_str(), "%8x", &declared) != 1) {
            tear("FT-JRNL-FRAME", "unparseable frame checksum");
            return out;
        }
        if (crc32(payload) != declared) {
            tear("FT-JRNL-CRC", "frame checksum mismatch");
            return out;
        }
        out.records.emplace_back(payload);
        pos = payload_at + len + 1;
        out.validBytes = pos;
    }
    return out;
}

JournalContents
readJournal(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        JournalContents out;
        out.diag = diagLine("FT-JRNL-NOFILE", 0, "cannot open file", 0);
        return out;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parseJournal(buf.str());
}

bool
truncateToValid(const std::string &path, const JournalContents &contents)
{
    if (!contents.valid)
        return false;
    // Rewrite the valid prefix through a temp file + rename: equally
    // atomic as an in-place truncate, with no partial states visible.
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string bytes(contents.validBytes, '\0');
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (in.gcount() != static_cast<std::streamsize>(bytes.size()))
        return false;
    in.close();
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out)
            return false;
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            out.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

JournalWriter::JournalWriter(std::string kind) : buf_(journalHeader(kind)) {}

void
JournalWriter::append(std::string_view payload)
{
    buf_ += journalFrame(payload);
}

bool
JournalWriter::commit(const std::string &path) const
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary);
        if (!out)
            return false;
        out.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
        if (!out) {
            out.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
journalAppend(const std::string &path, const std::string &kind,
              std::string_view payload)
{
    JournalContents existing = readJournal(path);
    if (!existing.valid || existing.kind != kind) {
        // Missing, empty, non-journal or foreign-kind file: start a fresh
        // journal atomically so the old contents never mix with frames.
        JournalWriter writer(kind);
        writer.append(payload);
        return writer.commit(path);
    }
    if (existing.torn) {
        warn("journal ", path, " has a torn tail (", existing.diag,
             "); truncating to last valid frame before append");
        if (!truncateToValid(path, existing))
            return false;
    }
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out)
        return false;
    const std::string frame = journalFrame(payload);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out.flush();
    return static_cast<bool>(out);
}

} // namespace ft
