/**
 * @file
 * The one text form of persisted doubles: hexfloat ("%a") out, strtod
 * in, bit-exact both ways.
 */
#ifndef FLEXTENSOR_SUPPORT_HEXFLOAT_H
#define FLEXTENSOR_SUPPORT_HEXFLOAT_H

#include <cstdio>
#include <cstdlib>
#include <istream>
#include <string>

namespace ft {

/** Hexfloat rendering: round-trips every finite double bit-exactly. */
inline std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** Parse all of a nonempty `text` as a double (hexfloat or decimal). */
inline bool
parseDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0';
}

/** parseDouble on the next whitespace-separated token of `is`. */
inline bool
readDouble(std::istream &is, double &out)
{
    std::string tok;
    return (is >> tok) && parseDouble(tok, out);
}

} // namespace ft

#endif // FLEXTENSOR_SUPPORT_HEXFLOAT_H
