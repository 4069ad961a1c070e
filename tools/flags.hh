/**
 * @file
 * Strict numeric flag values for the command-line tools (qompressd,
 * qompress_cli). A value that is malformed or out of range is a
 * FatalError naming its flag; both tools turn that into exit 2.
 */

#ifndef QOMPRESS_TOOLS_FLAGS_HH
#define QOMPRESS_TOOLS_FLAGS_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/error.hh"

namespace qompress {

/** Value of the integer flag @p flag: decimal digits only, within
 *  [lo, hi]; anything else is a FatalError naming the flag. */
inline std::uint64_t
integerFlag(const std::string &flag, const std::string &value,
            std::uint64_t lo, std::uint64_t hi)
{
    errno = 0;
    const bool digits = !value.empty() &&
                        value.find_first_not_of("0123456789") ==
                            std::string::npos;
    const unsigned long long n =
        digits ? std::strtoull(value.c_str(), nullptr, 10) : 0;
    const std::string range =
        hi == std::numeric_limits<std::uint64_t>::max()
            ? ">= " + std::to_string(lo)
            : "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    QFATAL_IF(!digits || errno == ERANGE || n < lo || n > hi, flag,
              " expects an integer ", range, ", got '", value, "'");
    return n;
}

/** Value of the real flag @p flag: a finite number that @p inRange
 *  accepts; @p range words that condition in the error, which names
 *  the flag. */
inline double
realFlag(const std::string &flag, const std::string &value,
         const char *range, bool (*inRange)(double))
{
    char *end = nullptr;
    double x = 0.0;
    if (!value.empty() && !std::isspace(static_cast<unsigned char>(value[0])))
        x = std::strtod(value.c_str(), &end);
    QFATAL_IF(end == nullptr || *end != '\0' || !std::isfinite(x) ||
                  !inRange(x),
              flag, " expects a finite number ", range, ", got '", value,
              "'");
    return x;
}

/** Value of a duration or weight flag: a finite number >= 0. */
inline double
nonNegativeFlag(const std::string &flag, const std::string &value)
{
    return realFlag(flag, value, ">= 0", [](double x) { return x >= 0.0; });
}

} // namespace qompress

#endif // QOMPRESS_TOOLS_FLAGS_HH
