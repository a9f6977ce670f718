// The text codec every line-oriented format in the library shares: plan
// and artifact texts (pricing/serialization.h, engine/policy_artifact.h)
// and wire payloads (net/wire.h).
//
// Doubles travel as C99 hex floats, so every non-NaN value round-trips
// bit-exactly. PutHex prints exactly the bytes glibc's printf %a conversion
// prints -- "0x1.8p+1", "-0x0p+0", "0x0.0000000000001p-1022", "inf",
// "-nan" -- so committed artifacts and wire bytes stay stable, but it reads
// the bits itself instead of going through printf: it writes all 13
// fraction digits and trims the trailing zeros with std::countr_zero. It
// writes through a caller's cursor, so a table encoder sizes a row once
// (kMaxHexChars per double, kMaxIntChars per int, each plus a separator)
// and writes every field in place; AppendHex and FormatHex wrap it, and
// PutInt/AppendInt are the base-10 twins on std::to_chars.
//
// ParseDouble reads that canonical text on a fast path: the exact forms
// PutHex prints for finite values -- [-]0x1[.h{1,13}]p(+|-)d{1,4} with a
// normal exponent, [-]0x0p+0 and [-]0x0.h{1,13}p-1022, lower-case digits --
// decode through a 256-entry digit table straight into the bits. Every
// other spelling (decimal, upper case, inf and nan, 14 or more digits, an
// exponent out of the normal range) takes the general parser, built on
// std::from_chars, so the set of accepted tokens, their values and the
// errors are the same either way. The parsers read one whole token and
// return InvalidArgument for anything else: an empty token, trailing bytes,
// or a value the destination type cannot hold (a double that overflows or
// underflows, an integer outside T). Every in-range token strtod/strtol
// accepted still parses: an optional sign, decimal or 0x-prefixed hex, inf
// and nan.

#ifndef CROWDPRICE_UTIL_HEXFLOAT_H_
#define CROWDPRICE_UTIL_HEXFLOAT_H_

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/result.h"

namespace crowdprice {

/// The longest text PutHex writes: "-0x1.fffffffffffffp+1023".
inline constexpr size_t kMaxHexChars = 24;

/// The longest text PutInt writes: "-2147483648".
inline constexpr size_t kMaxIntChars = 11;

/// Writes `v` in printf %a form at `out`, which must have room for
/// kMaxHexChars bytes, and returns the end of what it wrote.
char* PutHex(double v, char* out);

/// Writes `v` in base 10 at `out`, which must have room for kMaxIntChars
/// bytes, and returns the end of what it wrote.
inline char* PutInt(int v, char* out) {
  return std::to_chars(out, out + kMaxIntChars, v).ptr;
}

/// `v` in printf %a form.
std::string FormatHex(double v);

/// Appends PutHex's text for `v` to `*out`.
void AppendHex(double v, std::string* out);

/// Appends `v` in base 10 to `*out`, without a temporary string.
template <typename T>
  requires std::is_integral_v<T>
void AppendInt(T v, std::string* out) {
  char buf[24];
  const char* const end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  out->append(buf, static_cast<size_t>(end - buf));
}

/// Appends one row through a cursor: grows `*out` by `max_bytes`, hands
/// `put` the start of that room, and keeps the bytes up to the end `put`
/// returns. `put` must write no more than `max_bytes`.
template <typename Put>
void AppendRow(std::string* out, size_t max_bytes, Put&& put) {
  const size_t at = out->size();
  out->resize(at + max_bytes);
  char* const end = put(out->data() + at);
  out->resize(static_cast<size_t>(end - out->data()));
}

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

/// The error both Tokens(line, expected, what) and ForEachToken return
/// when a line holds `found` tokens: "<what>: expected N fields, found M".
Status FieldCountError(const char* what, size_t expected, size_t found);

/// Reads one table row without collecting it: calls `each(i, token)`, which
/// returns a Status, for the i-th whitespace-separated token of `line`, i in
/// [0, expected). Fails with FieldCountError unless the line holds exactly
/// `expected` tokens -- that check wins over any error `each` returned, as
/// it does when Tokens counts first -- and otherwise returns the first error
/// `each` returned (it is not called again after one).
template <typename Each>
Status ForEachToken(std::string_view line, size_t expected, const char* what,
                    Each&& each) {
  Status status;
  size_t found = 0;
  for (std::string_view token = NextToken(&line); !token.empty();
       token = NextToken(&line), ++found) {
    if (found < expected && status.ok()) status = each(found, token);
  }
  if (found != expected) return FieldCountError(what, expected, found);
  return status;
}

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

  /// InvalidArgument("<noun> truncated: last line has no newline") unless
  /// the whole text ends in '\n': what a decoder checks when a text cut
  /// inside its last number would otherwise still parse.
  Status ExpectFinalNewline() const;

 private:
  std::string_view text_;
  const char* noun_;
  size_t pos_ = 0;
};

}  // namespace crowdprice

#endif  // CROWDPRICE_UTIL_HEXFLOAT_H_
