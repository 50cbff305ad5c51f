#include "support/logging.h"

#include <cstdio>
#include <cstdlib>

namespace ft {

namespace {

LogLevel globalLevel = LogLevel::Warning;

} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

namespace detail {

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    if (file && file[0]) {
        std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    } else {
        std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    }
    std::exit(1);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    if (file && file[0]) {
        std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    } else {
        std::fprintf(stderr, "panic: %s\n", msg.c_str());
    }
    std::abort();
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
debugImpl(const std::string &msg)
{
    std::fprintf(stderr, "debug: %s\n", msg.c_str());
}

} // namespace detail

} // namespace ft
