/**
 * @file
 * Small string formatting helpers shared by reports and dumps.
 */

#ifndef QOMPRESS_COMMON_STRINGS_HH
#define QOMPRESS_COMMON_STRINGS_HH

#include <string>
#include <vector>

namespace qompress {

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Split @p s on character @p sep (empty fields preserved). */
std::vector<std::string> split(const std::string &s, char sep);

} // namespace qompress

#endif // QOMPRESS_COMMON_STRINGS_HH
