#include "sampler/calls.hpp"

#include <algorithm>

#include "algorithms/chol.hpp"
#include "algorithms/sylv.hpp"
#include "algorithms/trinv.hpp"
#include "common/str.hpp"

namespace dlap {

namespace {

struct RoutineMeta {
  const char* name;
  std::vector<ArgKind> signature;
};

const std::vector<RoutineMeta>& routine_table() {
  using K = ArgKind;
  static const std::vector<RoutineMeta> table = {
      // dgemm(transA, transB, m, n, k, alpha, A, ldA, B, ldB, beta, C, ldC)
      {"dgemm",
       {K::Flag, K::Flag, K::Size, K::Size, K::Size, K::Scalar, K::Data,
        K::Lead, K::Data, K::Lead, K::Scalar, K::Data, K::Lead}},
      // dtrsm(side, uplo, transA, diag, m, n, alpha, A, ldA, B, ldB)
      {"dtrsm",
       {K::Flag, K::Flag, K::Flag, K::Flag, K::Size, K::Size, K::Scalar,
        K::Data, K::Lead, K::Data, K::Lead}},
      {"dtrmm",
       {K::Flag, K::Flag, K::Flag, K::Flag, K::Size, K::Size, K::Scalar,
        K::Data, K::Lead, K::Data, K::Lead}},
      // dsyrk(uplo, trans, n, k, alpha, A, ldA, beta, C, ldC)
      {"dsyrk",
       {K::Flag, K::Flag, K::Size, K::Size, K::Scalar, K::Data, K::Lead,
        K::Scalar, K::Data, K::Lead}},
      // dsymm(side, uplo, m, n, alpha, A, ldA, B, ldB, beta, C, ldC)
      {"dsymm",
       {K::Flag, K::Flag, K::Size, K::Size, K::Scalar, K::Data, K::Lead,
        K::Data, K::Lead, K::Scalar, K::Data, K::Lead}},
      // dsyr2k(uplo, trans, n, k, alpha, A, ldA, B, ldB, beta, C, ldC)
      {"dsyr2k",
       {K::Flag, K::Flag, K::Size, K::Size, K::Scalar, K::Data, K::Lead,
        K::Data, K::Lead, K::Scalar, K::Data, K::Lead}},
      // trinvI_unb(n, L, ldL)
      {"trinv1_unb", {K::Size, K::Data, K::Lead}},
      {"trinv2_unb", {K::Size, K::Data, K::Lead}},
      {"trinv3_unb", {K::Size, K::Data, K::Lead}},
      {"trinv4_unb", {K::Size, K::Data, K::Lead}},
      // sylv_unb(m, n, L, ldL, U, ldU, X, ldX)
      {"sylv_unb",
       {K::Size, K::Size, K::Data, K::Lead, K::Data, K::Lead, K::Data,
        K::Lead}},
      // cholI_unb(n, A, ldA)
      {"chol1_unb", {K::Size, K::Data, K::Lead}},
      {"chol2_unb", {K::Size, K::Data, K::Lead}},
      {"chol3_unb", {K::Size, K::Data, K::Lead}},
  };
  return table;
}

const RoutineMeta& meta(RoutineId id) {
  return routine_table()[static_cast<std::size_t>(id)];
}

index_t count_kind(RoutineId id, ArgKind kind) {
  const auto& sig = meta(id).signature;
  return std::count(sig.begin(), sig.end(), kind);
}

}  // namespace

const char* routine_name(RoutineId id) { return meta(id).name; }

RoutineId routine_from_name(const std::string& name) {
  const auto& table = routine_table();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (name == table[i].name) return static_cast<RoutineId>(i);
  }
  throw lookup_error("unknown routine: '" + name + "'");
}

const std::vector<ArgKind>& routine_signature(RoutineId id) {
  return meta(id).signature;
}

bool call_is_degenerate(std::span<const index_t> sizes) noexcept {
  return std::any_of(sizes.begin(), sizes.end(),
                     [](index_t s) { return s == 0; });
}

bool call_is_degenerate(const KernelCall& call) noexcept {
  return call_is_degenerate(call.sizes);
}

void validate_call(const KernelCall& c) {
  DLAP_REQUIRE(static_cast<int>(c.routine) >= 0 &&
                   static_cast<int>(c.routine) < kRoutineCount,
               "invalid routine id");
  const auto expect = [&](ArgKind k, index_t have, const char* what) {
    DLAP_REQUIRE(have == count_kind(c.routine, k),
                 std::string(routine_name(c.routine)) + ": wrong number of " +
                     what + " arguments");
  };
  expect(ArgKind::Flag, static_cast<index_t>(c.flags.size()), "flag");
  expect(ArgKind::Size, static_cast<index_t>(c.sizes.size()), "size");
  expect(ArgKind::Scalar, static_cast<index_t>(c.scalars.size()), "scalar");
  expect(ArgKind::Lead, static_cast<index_t>(c.leads.size()), "lead");
  for (index_t s : c.sizes) {
    DLAP_REQUIRE(s >= 0, "negative size argument");
  }
  // Leading dimensions are checked against operand shapes.
  for (const OperandShape& shape : operand_shapes(c)) {
    DLAP_REQUIRE(shape.ld >= std::max<index_t>(1, shape.rows),
                 std::string(routine_name(c.routine)) +
                     ": leading dimension smaller than operand rows");
  }
}

double call_flops(RoutineId routine, std::span<const char> flags,
                  std::span<const index_t> sizes) {
  const auto size = [&](std::size_t i) {
    DLAP_REQUIRE(i < sizes.size(), std::string(routine_name(routine)) +
                                       ": too few size arguments");
    return sizes[i];
  };
  const auto sz = [&](std::size_t i) { return static_cast<double>(size(i)); };
  const auto left = [&] {
    DLAP_REQUIRE(!flags.empty(), std::string(routine_name(routine)) +
                                     ": missing side flag");
    return flags[0] == 'L';
  };
  switch (routine) {
    case RoutineId::Gemm:
      return 2.0 * sz(0) * sz(1) * sz(2);
    case RoutineId::Trsm:
    case RoutineId::Trmm: {
      const double m = sz(0);
      const double n = sz(1);
      return left() ? m * m * n : m * n * n;
    }
    case RoutineId::Syrk:
      return sz(1) * sz(0) * (sz(0) + 1.0);
    case RoutineId::Symm: {
      const double m = sz(0);
      const double n = sz(1);
      return 2.0 * m * n * (left() ? m : n);
    }
    case RoutineId::Syr2k:
      return 2.0 * sz(1) * sz(0) * (sz(0) + 1.0);
    case RoutineId::Trinv1Unb:
    case RoutineId::Trinv2Unb:
    case RoutineId::Trinv3Unb:
    case RoutineId::Trinv4Unb:
      return trinv_flops(size(0));
    case RoutineId::SylvUnb:
      return sylv_flops(size(0), size(1));
    case RoutineId::Chol1Unb:
    case RoutineId::Chol2Unb:
    case RoutineId::Chol3Unb:
      return chol_flops(size(0));
  }
  return 0.0;
}

double call_flops(const KernelCall& c) {
  return call_flops(c.routine, c.flags, c.sizes);
}

std::vector<OperandShape> operand_shapes(const KernelCall& c) {
  using Fill = OperandShape::Fill;
  std::vector<OperandShape> out;
  const auto flag = [&](std::size_t i) { return c.flags.at(i); };
  const auto size = [&](std::size_t i) { return c.sizes.at(i); };
  const auto lead = [&](std::size_t i) { return c.leads.at(i); };

  switch (c.routine) {
    case RoutineId::Gemm: {
      const index_t m = size(0), n = size(1), k = size(2);
      const bool ta = flag(0) != 'N';
      const bool tb = flag(1) != 'N';
      out.push_back({ta ? k : m, ta ? m : k, lead(0), Fill::General, false});
      out.push_back({tb ? n : k, tb ? k : n, lead(1), Fill::General, false});
      out.push_back({m, n, lead(2), Fill::General, true});
      break;
    }
    case RoutineId::Trsm:
    case RoutineId::Trmm: {
      const index_t m = size(0), n = size(1);
      const index_t asz = (flag(0) == 'L') ? m : n;
      const Fill tri = (flag(1) == 'L') ? Fill::LowerTri : Fill::UpperTri;
      out.push_back({asz, asz, lead(0), tri, false});
      out.push_back({m, n, lead(1), Fill::General, true});
      break;
    }
    case RoutineId::Syrk: {
      const index_t n = size(0), k = size(1);
      const bool tr = flag(1) != 'N';
      out.push_back({tr ? k : n, tr ? n : k, lead(0), Fill::General, false});
      out.push_back({n, n, lead(1), Fill::Symmetric, true});
      break;
    }
    case RoutineId::Symm: {
      const index_t m = size(0), n = size(1);
      const index_t asz = (flag(0) == 'L') ? m : n;
      out.push_back({asz, asz, lead(0), Fill::Symmetric, false});
      out.push_back({m, n, lead(1), Fill::General, false});
      out.push_back({m, n, lead(2), Fill::General, true});
      break;
    }
    case RoutineId::Syr2k: {
      const index_t n = size(0), k = size(1);
      const bool tr = flag(1) != 'N';
      out.push_back({tr ? k : n, tr ? n : k, lead(0), Fill::General, false});
      out.push_back({tr ? k : n, tr ? n : k, lead(1), Fill::General, false});
      out.push_back({n, n, lead(2), Fill::Symmetric, true});
      break;
    }
    case RoutineId::Trinv1Unb:
    case RoutineId::Trinv2Unb:
    case RoutineId::Trinv3Unb:
    case RoutineId::Trinv4Unb: {
      const index_t n = size(0);
      out.push_back({n, n, lead(0), Fill::LowerTri, true});
      break;
    }
    case RoutineId::SylvUnb: {
      const index_t m = size(0), n = size(1);
      out.push_back({m, m, lead(0), Fill::LowerTri, false});
      out.push_back({n, n, lead(1), Fill::UpperTri, false});
      out.push_back({m, n, lead(2), Fill::General, true});
      break;
    }
    case RoutineId::Chol1Unb:
    case RoutineId::Chol2Unb:
    case RoutineId::Chol3Unb: {
      const index_t n = size(0);
      out.push_back({n, n, lead(0), Fill::SymPosDef, true});
      break;
    }
  }
  return out;
}

KernelCall parse_call(const std::string& text) {
  const std::string_view t = trim(text);
  const auto open = t.find('(');
  if (open == std::string_view::npos || t.back() != ')') {
    throw parse_error("malformed call: '" + text + "'");
  }
  KernelCall call;
  call.routine = routine_from_name(std::string(trim(t.substr(0, open))));
  const std::string_view inner = t.substr(open + 1, t.size() - open - 2);

  std::vector<std::string> fields;
  if (!trim(inner).empty()) fields = split_trimmed(inner, ',');
  const auto& sig = routine_signature(call.routine);
  if (fields.size() != sig.size()) {
    throw parse_error(std::string(routine_name(call.routine)) + " expects " +
                      std::to_string(sig.size()) + " arguments, got " +
                      std::to_string(fields.size()));
  }
  for (std::size_t i = 0; i < sig.size(); ++i) {
    const std::string& f = fields[i];
    switch (sig[i]) {
      case ArgKind::Flag:
        if (f.size() != 1) {
          throw parse_error("flag argument must be one character: '" + f +
                            "'");
        }
        call.flags.push_back(f[0]);
        break;
      case ArgKind::Size:
        call.sizes.push_back(static_cast<index_t>(parse_int(f)));
        break;
      case ArgKind::Scalar:
        call.scalars.push_back(parse_double(f));
        break;
      case ArgKind::Lead:
        call.leads.push_back(static_cast<index_t>(parse_int(f)));
        break;
      case ArgKind::Data:
        break;  // data args are positional placeholders in text form
    }
  }
  validate_call(call);
  return call;
}

std::string format_call(const KernelCall& call) {
  validate_call(call);
  const auto& sig = routine_signature(call.routine);
  std::vector<std::string> fields;
  fields.reserve(sig.size());
  std::size_t fi = 0, si = 0, ai = 0, li = 0;
  int data_seen = 0;
  for (const ArgKind kind : sig) {
    switch (kind) {
      case ArgKind::Flag:
        fields.emplace_back(1, call.flags[fi++]);
        break;
      case ArgKind::Size:
        fields.push_back(std::to_string(call.sizes[si++]));
        break;
      case ArgKind::Scalar: {
        std::string s = std::to_string(call.scalars[ai++]);
        // Trim trailing zeros for readability (keep at least "x.0" -> "x").
        while (s.find('.') != std::string::npos &&
               (s.back() == '0' || s.back() == '.')) {
          const bool dot = s.back() == '.';
          s.pop_back();
          if (dot) break;
        }
        fields.push_back(std::move(s));
        break;
      }
      case ArgKind::Lead:
        fields.push_back(std::to_string(call.leads[li++]));
        break;
      case ArgKind::Data:
        fields.emplace_back(1, static_cast<char>('A' + data_seen++));
        break;
    }
  }
  return std::string(routine_name(call.routine)) + "(" + join(fields, ",") +
         ")";
}

void execute_call(const KernelCall& c, Level3Backend& backend,
                  const std::vector<double*>& ops) {
  validate_call(c);
  const auto nops = operand_shapes(c).size();
  DLAP_REQUIRE(ops.size() == nops, "execute_call: wrong operand count");
  const auto flag = [&](std::size_t i) { return c.flags.at(i); };
  const auto size = [&](std::size_t i) { return c.sizes.at(i); };
  const auto lead = [&](std::size_t i) { return c.leads.at(i); };

  switch (c.routine) {
    case RoutineId::Gemm:
      backend.gemm(trans_from_char(flag(0)), trans_from_char(flag(1)),
                   size(0), size(1), size(2), c.scalars[0], ops[0], lead(0),
                   ops[1], lead(1), c.scalars[1], ops[2], lead(2));
      break;
    case RoutineId::Trsm:
      backend.trsm(side_from_char(flag(0)), uplo_from_char(flag(1)),
                   trans_from_char(flag(2)), diag_from_char(flag(3)), size(0),
                   size(1), c.scalars[0], ops[0], lead(0), ops[1], lead(1));
      break;
    case RoutineId::Trmm:
      backend.trmm(side_from_char(flag(0)), uplo_from_char(flag(1)),
                   trans_from_char(flag(2)), diag_from_char(flag(3)), size(0),
                   size(1), c.scalars[0], ops[0], lead(0), ops[1], lead(1));
      break;
    case RoutineId::Syrk:
      backend.syrk(uplo_from_char(flag(0)), trans_from_char(flag(1)), size(0),
                   size(1), c.scalars[0], ops[0], lead(0), c.scalars[1],
                   ops[1], lead(1));
      break;
    case RoutineId::Symm:
      backend.symm(side_from_char(flag(0)), uplo_from_char(flag(1)), size(0),
                   size(1), c.scalars[0], ops[0], lead(0), ops[1], lead(1),
                   c.scalars[1], ops[2], lead(2));
      break;
    case RoutineId::Syr2k:
      backend.syr2k(uplo_from_char(flag(0)), trans_from_char(flag(1)),
                    size(0), size(1), c.scalars[0], ops[0], lead(0), ops[1],
                    lead(1), c.scalars[1], ops[2], lead(2));
      break;
    case RoutineId::Trinv1Unb:
      trinv_unblocked(1, size(0), ops[0], lead(0));
      break;
    case RoutineId::Trinv2Unb:
      trinv_unblocked(2, size(0), ops[0], lead(0));
      break;
    case RoutineId::Trinv3Unb:
      trinv_unblocked(3, size(0), ops[0], lead(0));
      break;
    case RoutineId::Trinv4Unb:
      trinv_unblocked(4, size(0), ops[0], lead(0));
      break;
    case RoutineId::SylvUnb:
      sylv_unblocked(size(0), size(1), ops[0], lead(0), ops[1], lead(1),
                     ops[2], lead(2));
      break;
    case RoutineId::Chol1Unb:
      chol_unblocked(1, size(0), ops[0], lead(0));
      break;
    case RoutineId::Chol2Unb:
      chol_unblocked(2, size(0), ops[0], lead(0));
      break;
    case RoutineId::Chol3Unb:
      chol_unblocked(3, size(0), ops[0], lead(0));
      break;
  }
}

}  // namespace dlap
