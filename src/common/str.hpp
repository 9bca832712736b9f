#pragma once
// Small string utilities used by the sampler's textual call interface and
// the repository's text formats.

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace dlap {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits `s` at every occurrence of `sep`; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits and trims each field; empty fields after trimming are preserved.
[[nodiscard]] std::vector<std::string> split_trimmed(std::string_view s,
                                                     char sep);

/// Joins `parts` with `sep` between consecutive elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Lower-cases ASCII characters.
[[nodiscard]] std::string to_lower(std::string_view s);

/// Parses a signed integer; throws dlap::parse_error on malformed input.
[[nodiscard]] long long parse_int(std::string_view s);

/// Parses a double; throws dlap::parse_error on malformed input.
[[nodiscard]] double parse_double(std::string_view s);

/// Reads a whole file (binary) into *text; false when it cannot be
/// opened.
[[nodiscard]] bool read_file(const std::filesystem::path& path,
                             std::string* text);

/// Escapes one file-name component injectively: alphanumerics and '_'
/// pass through, '@' (the threaded-backend separator) becomes "-t" for
/// readability, and every other character -- including '-' itself, so
/// '-' always starts an escape and the encoding stays unambiguous --
/// becomes "-x" plus two hex digits. Used by the model repository and
/// the sample repository so distinct keys always map to distinct file
/// names, even for path-hostile backend specs or flag strings.
[[nodiscard]] std::string escape_filename_component(std::string_view s);

/// Inverse of escape_filename_component; throws dlap::parse_error on a
/// malformed escape sequence (a component that the escaper cannot have
/// produced). Used by the container packer to recover engine keys from
/// sample-journal file names.
[[nodiscard]] std::string unescape_filename_component(std::string_view s);

}  // namespace dlap
