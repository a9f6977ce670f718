// The text codec every line-oriented format in the library shares: plan
// and artifact texts (pricing/serialization.h, engine/policy_artifact.h)
// and wire payloads (net/wire.h).
//
// Doubles travel as C99 hex floats, so every non-NaN value round-trips
// bit-exactly. FormatHex prints exactly the bytes glibc's printf %a
// conversion prints -- "0x1.8p+1", "-0x0p+0", "0x0.0000000000001p-1022",
// "inf", "-nan" -- so committed artifacts and wire bytes stay stable, but
// it reads the bits itself instead of going through printf. The parsers
// are built on std::from_chars. They read one whole token and return
// InvalidArgument for anything else: an empty token, trailing bytes, or a
// value the destination type cannot hold (a double that overflows or
// underflows, an integer outside T). Every in-range token strtod/strtol
// accepted still parses: an optional sign, decimal or 0x-prefixed hex,
// inf and nan.

#ifndef CROWDPRICE_UTIL_HEXFLOAT_H_
#define CROWDPRICE_UTIL_HEXFLOAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace crowdprice {

/// `v` in printf %a form.
std::string FormatHex(double v);

/// Appends FormatHex(v) to `*out`, for encoders that build a line in place.
void AppendHex(double v, std::string* out);

/// Parses a whole token as a double (hex or decimal, inf, nan).
Result<double> ParseDouble(std::string_view token, const char* what);

/// Parses a whole base-10 token straight into T, so a value T cannot hold
/// is an error rather than a silent wrap or clamp. Instantiated for int,
/// int64_t and uint64_t.
template <typename T>
Result<T> ParseInt(std::string_view token, const char* what);

/// Pops the next whitespace-separated token off the front of `*rest`
/// (leading whitespace skipped; the separator after it is left in place).
/// Empty once only whitespace remains.
std::string_view NextToken(std::string_view* rest);

/// Every whitespace-separated token of `line`, as views into it.
std::vector<std::string_view> Tokens(std::string_view line);

/// Tokens(line), failing InvalidArgument unless there are exactly
/// `expected` of them.
Result<std::vector<std::string_view>> Tokens(std::string_view line,
                                             size_t expected,
                                             const char* what);

/// Reads a text line by line ('\n'-terminated; the last line may lack the
/// newline) and in byte-counted blocks, without copying. Truncation errors
/// read "<noun> truncated: expected <what>". The text must outlive the
/// reader and every view it returns.
class LineReader {
 public:
  LineReader(std::string_view text, const char* noun)
      : text_(text), noun_(noun) {}

  /// The next line, without its newline.
  Result<std::string_view> Next(const char* what);

  /// The next `n` bytes, newlines included.
  Result<std::string_view> Bytes(size_t n, const char* what);

  /// Everything not yet read.
  std::string_view Rest() const { return text_.substr(pos_); }

  /// InvalidArgument unless the unread text can hold `tokens` more tokens,
  /// each at least one byte with a separator between: what a decoder checks
  /// before it sizes a table from a count the text claims, so a short text
  /// never makes it allocate in proportion to a lie.
  Status ExpectRoomFor(uint64_t tokens, const char* what) const;

  /// InvalidArgument("trailing bytes after <what>") unless everything has
  /// been read.
  Status ExpectEnd(const char* what) const;

 private:
  std::string_view text_;
  const char* noun_;
  size_t pos_ = 0;
};

}  // namespace crowdprice

#endif  // CROWDPRICE_UTIL_HEXFLOAT_H_
