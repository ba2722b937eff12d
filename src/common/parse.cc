#include "common/parse.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace csim
{

namespace
{

/** Throw unless a strto* call read all of @p text, up to @p end. */
void
requireWhole(const std::string &what, const std::string &text,
             const char *end, const char *kind)
{
    if (end == text.c_str() || *end != '\0')
        throw ConfigError(
            msgCat(what, " = '", text, "' is not ", kind));
}

} // namespace

std::int64_t
parseInteger(const std::string &what, const std::string &text,
             int base)
{
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, base);
    requireWhole(what, text, end, "an integer");
    return v;
}

double
parseReal(const std::string &what, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    requireWhole(what, text, end, "a number");
    return v;
}

std::int64_t
parseIntegerIn(const std::string &what, const std::string &text,
               std::int64_t lo, std::int64_t hi, int base)
{
    const std::int64_t v = parseInteger(what, text, base);
    if (v < lo || v > hi)
        throw ConfigError(msgCat(what, " = ", v, " is out of range [",
                                 lo, ", ", hi, "]"));
    return v;
}

} // namespace csim
