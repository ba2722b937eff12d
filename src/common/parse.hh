/**
 * @file
 * The one number parser for outside input: config fields, sweep
 * axes, the CLI's tool options and the bench binaries' `--jobs` and
 * `CSIM_JOBS`. Lives in common so every layer that reads input
 * (config, runner, tools) shares it.
 */

#ifndef COHERSIM_COMMON_PARSE_HH
#define COHERSIM_COMMON_PARSE_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace csim
{

/**
 * Configuration error: an unknown key, an out-of-range value, a
 * malformed list. Thrown (not fatal()ed) so callers — the CLI, the
 * benches, the tests — can report or assert on the message, which
 * always names the offending key and value.
 */
class ConfigError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * All of @p text as an integer in @p base (0 also takes 0x and 0
 * prefixes), or as a real. Throws ConfigError "<what> = '<text>' is
 * not an integer" (or "a number") when none or only part of it
 * parses.
 */
std::int64_t parseInteger(const std::string &what,
                          const std::string &text, int base = 10);
double parseReal(const std::string &what, const std::string &text);

/**
 * parseInteger, then a range check: throws ConfigError "<what> = <v>
 * is out of range [lo, hi]" for a value outside [@p lo, @p hi].
 */
std::int64_t parseIntegerIn(const std::string &what,
                            const std::string &text, std::int64_t lo,
                            std::int64_t hi, int base = 10);

} // namespace csim

#endif // COHERSIM_COMMON_PARSE_HH
