/**
 * @file
 * Dependency-free HTTP/1.1 plumbing for qompressd and its clients.
 *
 * Server side: an incremental request parser that consumes one
 * complete request (request line, headers, Content-Length body) from
 * the front of a receive buffer, plus a response serializer. The
 * parser is deliberately strict about what it accepts — it fronts
 * untrusted network input — and every rejection carries the HTTP
 * status the connection handler should answer with (400 malformed,
 * 413 oversized body, 505 wrong version).
 *
 * Client side: tiny blocking helpers (connect, send-all, read one
 * response) shared by tests/test_server.cc and perfbench's client so
 * both speak the exact same dialect as the server.
 *
 * Supported subset: GET/POST, header folding rejected, no chunked
 * transfer encoding (Content-Length only), keep-alive per HTTP/1.1
 * defaults (persistent unless "Connection: close").
 */

#ifndef QOMPRESS_SERVER_HTTP_HH
#define QOMPRESS_SERVER_HTTP_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace qompress {

/** One parsed request. Header names and query keys are lower-cased;
 *  query values are percent-decoded. */
struct HttpRequest
{
    std::string method;
    std::string path; ///< target up to '?'
    std::map<std::string, std::string> query;
    std::map<std::string, std::string> headers;
    std::string body;

    /** Query parameter by (lower-case) key, or @p fallback. */
    const std::string &queryParam(const std::string &key,
                                  const std::string &fallback = "") const;

    /** True when the client allows response reuse of the connection. */
    bool keepAlive() const;
};

/** tryParseHttpRequest outcome. */
enum class HttpParseStatus
{
    Complete,   ///< one request consumed from the buffer into `out`
    Incomplete, ///< need more bytes; buffer untouched
    Error,      ///< malformed; answer `errorStatus` and close
};

/**
 * Consume one complete request from the front of @p buffer.
 *
 * On Complete the request's bytes are erased from @p buffer (pipelined
 * followers stay queued). On Error, @p errorStatus and @p error
 * describe the rejection. Bodies larger than @p maxBody are rejected
 * with 413 — before buffering the body, so an attacker cannot make
 * the server hold more than maxBody + header bytes per connection.
 */
HttpParseStatus tryParseHttpRequest(std::string &buffer, HttpRequest &out,
                                    int &errorStatus, std::string &error,
                                    std::size_t maxBody);

/** Serialize a response (Content-Length framing, JSON by default). */
std::string httpResponse(
    int status, const std::string &body,
    const std::string &contentType = "application/json",
    bool keepAlive = true,
    const std::vector<std::pair<std::string, std::string>> &extraHeaders =
        {});

/** Canonical reason phrase ("OK", "Bad Request", ...). */
const char *httpStatusReason(int status);

/** Minimal JSON string escaping (quotes, backslash, control chars). */
std::string jsonEscape(const std::string &s);

/** @name Client helpers (blocking, IPv4) @{ */

/** Connect to host:port; returns the fd or -1 (errno left set). */
int httpConnect(const std::string &host, int port);

/** Write the whole buffer; false on error/EPIPE. */
bool httpSendAll(int fd, const std::string &data);

/**
 * Read one response off @p fd (status line + headers + Content-Length
 * body) and keep its status and body; the other headers are skipped.
 * Returns false on EOF/timeout/garbage. @p leftover carries bytes of
 * a following pipelined response between calls.
 */
bool httpReadResponse(int fd, std::string &leftover, int &status,
                      std::string &body, int timeoutMs = 30000);
/** @} */

} // namespace qompress

#endif // QOMPRESS_SERVER_HTTP_HH
