#include "obs/trace.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/logging.h"

namespace ft {

std::string
formatTraceDouble(double v)
{
    if (!std::isfinite(v))
        return v > 0 ? "1e9999" : (v < 0 ? "-1e9999" : "0");
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec; // 64 bytes always suffice for the shortest form
    return std::string(buf, end);
}

namespace {

/** JSON string escaping for the characters our payloads can contain. */
std::string
escapeJson(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

TraceField
tstr(std::string_view key, std::string_view value)
{
    return {std::string(key), "\"" + escapeJson(value) + "\""};
}

TraceField
tint(std::string_view key, int64_t value)
{
    return {std::string(key), std::to_string(value)};
}

TraceField
treal(std::string_view key, double value)
{
    return {std::string(key), formatTraceDouble(value)};
}

TraceField
tbool(std::string_view key, bool value)
{
    return {std::string(key), value ? "true" : "false"};
}

void
TraceRecorder::emit(char type, std::string_view name, const double *sim,
                    std::initializer_list<TraceField> fields,
                    const TraceField *last)
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string line;
    line.reserve(64);
    line += "{\"i\":";
    line += std::to_string(lines_.size());
    line += ",\"t\":\"";
    line += type;
    line += "\",\"name\":\"";
    line += escapeJson(name);
    line += "\"";
    if (sim) {
        line += ",\"sim\":";
        line += formatTraceDouble(*sim);
    }
    auto field = [&line](const TraceField &f) {
        line += ",\"";
        line += escapeJson(f.key);
        line += "\":";
        line += f.json;
    };
    for (const TraceField &f : fields)
        field(f);
    if (last)
        field(*last);
    line += "}";
    lines_.push_back(std::move(line));
}

void
TraceRecorder::meta(std::string_view name,
                    std::initializer_list<TraceField> fields)
{
    emit('M', name, nullptr, fields);
}

void
TraceRecorder::begin(std::string_view name, double sim,
                     std::initializer_list<TraceField> fields)
{
    emit('B', name, &sim, fields);
}

void
TraceRecorder::end(std::string_view name, double sim,
                   std::initializer_list<TraceField> fields,
                   const std::optional<TraceField> &last)
{
    emit('E', name, &sim, fields, last ? &*last : nullptr);
}

void
TraceRecorder::point(std::string_view name, double sim,
                     std::initializer_list<TraceField> fields)
{
    emit('P', name, &sim, fields);
}

void
TraceRecorder::append(const TraceRecorder &other)
{
    FT_ASSERT(&other != this, "appending a trace recorder to itself");
    const std::vector<std::string> events = other.lines();
    std::lock_guard<std::mutex> lock(mu_);
    constexpr std::string_view prefix = "{\"i\":";
    for (const std::string &event : events) {
        // Every line starts {"i":<index>,...; keep what follows the index.
        const size_t rest = event.find(',', prefix.size());
        FT_ASSERT(event.compare(0, prefix.size(), prefix) == 0 &&
                      rest != std::string::npos,
                  "not a trace event line: ", event);
        std::string line(prefix);
        line += std::to_string(lines_.size());
        line.append(event, rest, std::string::npos);
        lines_.push_back(std::move(line));
    }
}

uint64_t
TraceRecorder::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lines_.size();
}

std::vector<std::string>
TraceRecorder::lines() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lines_;
}

std::string
TraceRecorder::toJsonl() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    for (const std::string &line : lines_) {
        out += line;
        out += "\n";
    }
    return out;
}

bool
TraceRecorder::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << toJsonl();
    return static_cast<bool>(out);
}

std::string
ParsedTraceEvent::str(const std::string &key, std::string def) const
{
    auto it = fields.find(key);
    return it == fields.end() ? def : it->second;
}

int64_t
ParsedTraceEvent::integer(const std::string &key, int64_t def) const
{
    auto it = fields.find(key);
    if (it == fields.end())
        return def;
    return std::strtoll(it->second.c_str(), nullptr, 10);
}

double
ParsedTraceEvent::real(const std::string &key, double def) const
{
    auto it = fields.find(key);
    if (it == fields.end())
        return def;
    return std::strtod(it->second.c_str(), nullptr);
}

namespace {

/** Minimal parser for the flat objects TraceRecorder writes. */
class LineParser
{
  public:
    explicit LineParser(const std::string &s) : s_(s) {}

    bool consume(char c)
    {
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool atEnd() const { return pos_ >= s_.size(); }
    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

    /** Parse a quoted string with the recorder's escape set. */
    bool parseString(std::string &out)
    {
        if (!consume('"'))
            return false;
        out.clear();
        while (pos_ < s_.size()) {
            char c = s_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return false;
                char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'u': {
                    if (pos_ + 4 > s_.size())
                        return false;
                    out += static_cast<char>(std::strtol(
                        s_.substr(pos_, 4).c_str(), nullptr, 16));
                    pos_ += 4;
                    break;
                  }
                  default: return false;
                }
            } else {
                out += c;
            }
        }
        return false;
    }

    /** A number / true / false literal, captured as raw text. */
    bool parseLiteral(std::string &out)
    {
        size_t start = pos_;
        while (pos_ < s_.size() && s_[pos_] != ',' && s_[pos_] != '}')
            ++pos_;
        out = s_.substr(start, pos_ - start);
        return !out.empty();
    }

  private:
    const std::string &s_;
    size_t pos_ = 0;
};

} // namespace

std::optional<ParsedTraceEvent>
parseTraceLine(const std::string &line)
{
    LineParser p(line);
    if (!p.consume('{'))
        return std::nullopt;
    ParsedTraceEvent event;
    bool first = true;
    bool saw_index = false, saw_type = false, saw_name = false;
    while (!p.consume('}')) {
        if (!first && !p.consume(','))
            return std::nullopt;
        first = false;
        std::string key;
        if (!p.parseString(key) || !p.consume(':'))
            return std::nullopt;
        std::string value;
        bool quoted = p.peek() == '"';
        if (quoted) {
            if (!p.parseString(value))
                return std::nullopt;
        } else if (!p.parseLiteral(value)) {
            return std::nullopt;
        }
        if (key == "i") {
            event.index = std::strtoull(value.c_str(), nullptr, 10);
            saw_index = true;
        } else if (key == "t") {
            if (value.size() != 1)
                return std::nullopt;
            event.type = value[0];
            saw_type = true;
        } else if (key == "name") {
            event.name = value;
            saw_name = true;
        } else if (key == "sim" && !quoted) {
            event.sim = std::strtod(value.c_str(), nullptr);
            event.fields.emplace(key, std::move(value));
        } else {
            event.fields.emplace(key, std::move(value));
        }
    }
    if (!p.atEnd() || !saw_index || !saw_type || !saw_name)
        return std::nullopt;
    return event;
}

std::optional<std::vector<ParsedTraceEvent>>
loadTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::vector<ParsedTraceEvent> events;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        auto event = parseTraceLine(line);
        if (!event)
            return std::nullopt;
        events.push_back(std::move(*event));
    }
    return events;
}

} // namespace ft
