#include "ir/parser.hpp"

#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "support/string_utils.hpp"

namespace luis::ir {
namespace {

bool is_real_literal(std::string_view tok) {
  return tok.find('.') != std::string_view::npos ||
         tok.find('e') != std::string_view::npos ||
         tok.find("inf") != std::string_view::npos ||
         tok.find("nan") != std::string_view::npos;
}

std::optional<Opcode> opcode_by_name(std::string_view name) {
  static const std::map<std::string_view, Opcode> kTable = {
      {"add", Opcode::Add},       {"sub", Opcode::Sub},
      {"mul", Opcode::Mul},       {"div", Opcode::Div},
      {"rem", Opcode::Rem},       {"neg", Opcode::Neg},
      {"abs", Opcode::Abs},       {"sqrt", Opcode::Sqrt},
      {"exp", Opcode::Exp},       {"pow", Opcode::Pow},
      {"min", Opcode::Min},       {"max", Opcode::Max},
      {"cast", Opcode::Cast},     {"inttoreal", Opcode::IntToReal},
      {"load", Opcode::Load},     {"store", Opcode::Store},
      {"iadd", Opcode::IAdd},     {"isub", Opcode::ISub},
      {"imul", Opcode::IMul},     {"idiv", Opcode::IDiv},
      {"irem", Opcode::IRem},     {"imin", Opcode::IMin},
      {"imax", Opcode::IMax},     {"icmp", Opcode::ICmp},
      {"fcmp", Opcode::FCmp},     {"select", Opcode::Select},
      {"phi", Opcode::Phi},       {"br", Opcode::Br},
      {"condbr", Opcode::CondBr}, {"ret", Opcode::Ret},
  };
  const auto it = kTable.find(name);
  if (it == kTable.end()) return std::nullopt;
  return it->second;
}

std::optional<CmpPred> pred_by_name(std::string_view name) {
  static const std::map<std::string_view, CmpPred> kTable = {
      {"eq", CmpPred::EQ}, {"ne", CmpPred::NE}, {"lt", CmpPred::LT},
      {"le", CmpPred::LE}, {"gt", CmpPred::GT}, {"ge", CmpPred::GE},
  };
  const auto it = kTable.find(name);
  if (it == kTable.end()) return std::nullopt;
  return it->second;
}

ScalarType result_type_of(Opcode op) {
  switch (op) {
  case Opcode::Add: case Opcode::Sub: case Opcode::Mul: case Opcode::Div:
  case Opcode::Rem: case Opcode::Neg: case Opcode::Abs: case Opcode::Sqrt:
  case Opcode::Exp: case Opcode::Pow: case Opcode::Min: case Opcode::Max:
  case Opcode::Cast: case Opcode::IntToReal: case Opcode::Load:
    return ScalarType::Real;
  case Opcode::IAdd: case Opcode::ISub: case Opcode::IMul: case Opcode::IDiv:
  case Opcode::IRem: case Opcode::IMin: case Opcode::IMax:
    return ScalarType::Int;
  case Opcode::ICmp: case Opcode::FCmp:
    return ScalarType::Bool;
  default:
    return ScalarType::Void;
  }
}

class Parser {
public:
  Parser(Module& module, std::string_view text) : module_(module), text_(text) {}

  ParseResult run() {
    ParseResult result;
    struct Line {
      int number = 0; ///< 1-based line in the source text
      std::string text;
    };
    std::vector<Line> lines;
    {
      std::istringstream is{std::string(text_)};
      std::string line;
      int number = 0;
      while (std::getline(is, line)) {
        ++number;
        const auto t = trim(line);
        if (!t.empty()) lines.push_back({number, std::string(t)});
      }
    }
    if (lines.empty() || !starts_with(lines.front().text, "func @")) {
      result.error = "expected 'func @name {'";
      return result;
    }
    const std::string& header = lines.front().text;
    const auto brace = header.find('{');
    std::string fname{trim(header.substr(6, brace == std::string::npos
                                                ? std::string::npos
                                                : brace - 6))};
    function_ = module_.add_function(fname);

    // Pass 1: create blocks and arrays.
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string& line = lines[i].text;
      if (line == "}") break;
      if (starts_with(line, "array @")) {
        const std::string err = parse_array(line);
        if (!err.empty()) {
          result.error = at(lines[i].number) + err + " in: " + line;
          return result;
        }
      } else if (line.back() == ':') {
        function_->add_block(line.substr(0, line.size() - 1));
      }
    }

    // Pass 2: instructions.
    BasicBlock* current = nullptr;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      const std::string& line = lines[i].text;
      line_no_ = lines[i].number;
      if (line == "}") break;
      if (starts_with(line, "array @")) continue;
      if (line.back() == ':') {
        current = function_->block_by_name(line.substr(0, line.size() - 1));
        continue;
      }
      if (!current) {
        result.error = at(line_no_) + "instruction outside of a block: " + line;
        return result;
      }
      const std::string err = parse_instruction(current, line);
      if (!err.empty()) {
        result.error = at(line_no_) + err + " in: " + line;
        return result;
      }
    }

    // Resolve pending (forward) references; the tokens are well-formed.
    for (const Pending& p : pending_) {
      Value* v = nullptr;
      resolve(p.token, v);
      if (!v) {
        result.error = at(p.line_no) + "unresolved operand " + p.token;
        return result;
      }
      p.inst->set_operand(p.slot, v);
    }
    result.function = function_;
    return result;
  }

private:
  static std::string at(int line_no) {
    return "line " + std::to_string(line_no) + ": ";
  }

  /// Parses `array @NAME[d0][d1]... [range [lo, hi]]`. Returns an error
  /// message, empty on success.
  std::string parse_array(const std::string& line) {
    const std::size_t pos = 7; // after "array @"
    const std::size_t bracket = line.find('[', pos);
    if (bracket == std::string::npos) return "missing array extent";
    const std::string name = line.substr(pos, bracket - pos);
    std::vector<std::int64_t> dims;
    std::size_t cursor = bracket;
    while (cursor < line.size() && line[cursor] == '[') {
      const std::size_t close = line.find(']', cursor);
      if (close == std::string::npos) return "unterminated array extent";
      const std::string_view tok =
          trim(std::string_view(line).substr(cursor + 1, close - cursor - 1));
      std::int64_t extent = 0;
      if (!parse_full_int(tok, extent))
        return "bad array extent '" + std::string(tok) + "'";
      dims.push_back(extent);
      cursor = close + 1;
    }
    Array* arr = function_->add_array(name, std::move(dims));
    const std::string_view rest = trim(std::string_view(line).substr(cursor));
    if (rest.empty()) return "";
    if (!starts_with(rest, "range [") || rest.back() != ']')
      return "expected 'range [lo, hi]' after the extents";
    const auto bounds = split_fields(rest.substr(7, rest.size() - 8), ',');
    double lo = 0.0, hi = 0.0;
    if (bounds.size() != 2 ||
        !parse_full_number(std::string(trim(bounds[0])), lo) ||
        !parse_full_number(std::string(trim(bounds[1])), hi))
      return "bad range '" + std::string(rest) + "'";
    arr->annotate_range(lo, hi);
    return "";
  }

  /// Resolves an operand token: `%ID`, `@ARRAY` or a literal, each parsed
  /// in full. Returns false for a malformed token. Otherwise `out` is the
  /// value, or nullptr for a name not defined yet (the caller defers it).
  bool resolve(const std::string& token, Value*& out) {
    out = nullptr;
    if (token.empty()) return false;
    if (token[0] == '%') {
      std::int64_t id = 0;
      if (!parse_full_int(std::string_view(token).substr(1), id) || id < 0)
        return false;
      const auto it = by_id_.find(id);
      if (it != by_id_.end()) out = it->second;
      return true;
    }
    if (token[0] == '@') {
      out = function_->array_by_name(token.substr(1));
      return true;
    }
    if (is_real_literal(token)) {
      double value = 0.0;
      if (!parse_full_number(token, value)) return false;
      out = function_->const_real(value);
      return true;
    }
    std::int64_t value = 0;
    if (!parse_full_int(token, value)) return false;
    out = function_->const_int(value);
    return true;
  }

  /// Adds the (trimmed) `tokens` as operands `first`, `first + 1`, ... of
  /// `inst`, deferring forward refs. Returns an error for a malformed
  /// token, empty on success.
  std::string add_operands(Instruction* inst, std::size_t first,
                           const std::vector<std::string>& tokens) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const std::string token{trim(tokens[i])};
      Value* v = nullptr;
      if (!resolve(token, v)) return "malformed operand '" + token + "'";
      if (v)
        inst->set_operand(first + i, v);
      else
        pending_.push_back({inst, first + i, token, line_no_});
    }
    return "";
  }

  /// Splits an address `@A[i][j]...` into its array and index tokens.
  /// Returns an error message, empty on success.
  std::string parse_address(const std::string& addr, Array*& arr,
                            std::vector<std::string>& indices) {
    const std::size_t bracket = addr.find('[');
    if (addr.empty() || addr[0] != '@' || bracket == std::string::npos)
      return "bad address";
    arr = function_->array_by_name(addr.substr(1, bracket - 1));
    if (!arr) return "unknown array '" + addr.substr(1, bracket - 1) + "'";
    std::size_t cursor = bracket;
    while (cursor < addr.size() && addr[cursor] == '[') {
      const std::size_t close = addr.find(']', cursor);
      if (close == std::string::npos) return "unterminated index";
      indices.push_back(addr.substr(cursor + 1, close - cursor - 1));
      cursor = close + 1;
    }
    if (cursor != addr.size())
      return "trailing text after index: '" + addr.substr(cursor) + "'";
    return "";
  }

  std::string parse_instruction(BasicBlock* bb, const std::string& line) {
    std::string body = line;
    bool has_result = false;
    std::int64_t result_id = -1;
    if (body[0] == '%') {
      const std::size_t eq = body.find('=');
      if (eq == std::string::npos) return "missing '='";
      const std::string_view id = trim(std::string_view(body).substr(1, eq - 1));
      if (!parse_full_int(id, result_id) || result_id < 0)
        return "bad result id '%" + std::string(id) + "'";
      has_result = true;
      body = std::string(trim(body.substr(eq + 1)));
    }
    const std::size_t sp = body.find(' ');
    const std::string opname = sp == std::string::npos ? body : body.substr(0, sp);
    const std::string rest =
        sp == std::string::npos ? "" : std::string(trim(body.substr(sp + 1)));
    const auto op = opcode_by_name(opname);
    if (!op) return "unknown opcode '" + opname + "'";

    Instruction* inst = nullptr;
    std::string err;
    switch (*op) {
    case Opcode::Phi: {
      // phi TYPE [ tok, block ], [ tok, block ]...
      const std::size_t tsp = rest.find(' ');
      const std::string tname = rest.substr(0, tsp);
      ScalarType type;
      if (tname == "real")
        type = ScalarType::Real;
      else if (tname == "int")
        type = ScalarType::Int;
      else
        return "bad phi type";
      inst = bb->append(std::make_unique<Instruction>(Opcode::Phi, type,
                                                      std::vector<Value*>{}));
      std::size_t cursor = rest.find('[');
      while (cursor != std::string::npos) {
        const std::size_t comma = rest.find(',', cursor);
        const std::size_t close = rest.find(']', cursor);
        if (comma == std::string::npos || close == std::string::npos)
          return "bad phi incoming";
        const std::string tok = rest.substr(cursor + 1, comma - cursor - 1);
        const std::string bname{trim(rest.substr(comma + 1, close - comma - 1))};
        BasicBlock* from = function_->block_by_name(bname);
        if (!from) return "unknown block " + bname;
        inst->add_incoming(nullptr, from);
        err = add_operands(inst, inst->num_operands() - 1, {tok});
        if (!err.empty()) return err;
        cursor = rest.find('[', close);
      }
      break;
    }
    case Opcode::ICmp:
    case Opcode::FCmp: {
      const std::size_t psp = rest.find(' ');
      const auto pred = pred_by_name(rest.substr(0, psp));
      if (!pred) return "bad predicate";
      const auto toks = split_fields(rest.substr(psp + 1), ',');
      if (toks.size() != 2) return "cmp needs two operands";
      inst = bb->append(std::make_unique<Instruction>(
          *op, ScalarType::Bool, std::vector<Value*>{nullptr, nullptr}));
      inst->set_predicate(*pred);
      err = add_operands(inst, 0, toks);
      break;
    }
    case Opcode::Load: {
      // load @A[i][j]...
      Array* arr = nullptr;
      std::vector<std::string> idx_tokens;
      err = parse_address(rest, arr, idx_tokens);
      if (!err.empty()) return err;
      std::vector<Value*> ops(1 + idx_tokens.size(), nullptr);
      ops[0] = arr;
      inst = bb->append(std::make_unique<Instruction>(Opcode::Load,
                                                      ScalarType::Real,
                                                      std::move(ops)));
      err = add_operands(inst, 1, idx_tokens);
      break;
    }
    case Opcode::Store: {
      // store tok, @A[i][j]...
      const std::size_t comma = rest.find(',');
      if (comma == std::string::npos) return "bad store";
      Array* arr = nullptr;
      std::vector<std::string> idx_tokens;
      err = parse_address(std::string(trim(rest.substr(comma + 1))), arr,
                          idx_tokens);
      if (!err.empty()) return err;
      std::vector<Value*> ops(2 + idx_tokens.size(), nullptr);
      ops[1] = arr;
      inst = bb->append(std::make_unique<Instruction>(Opcode::Store,
                                                      ScalarType::Void,
                                                      std::move(ops)));
      err = add_operands(inst, 0, {rest.substr(0, comma)});
      if (err.empty()) err = add_operands(inst, 2, idx_tokens);
      break;
    }
    case Opcode::Br: {
      BasicBlock* target = function_->block_by_name(rest);
      if (!target) return "unknown branch target " + rest;
      inst = bb->append(std::make_unique<Instruction>(Opcode::Br, ScalarType::Void,
                                                      std::vector<Value*>{}));
      inst->set_targets({target});
      break;
    }
    case Opcode::CondBr: {
      const auto toks = split_fields(rest, ',');
      if (toks.size() != 3) return "condbr needs cond and two targets";
      BasicBlock* t = function_->block_by_name(std::string(trim(toks[1])));
      BasicBlock* e = function_->block_by_name(std::string(trim(toks[2])));
      if (!t || !e) return "unknown condbr target";
      inst = bb->append(std::make_unique<Instruction>(
          Opcode::CondBr, ScalarType::Void, std::vector<Value*>{nullptr}));
      inst->set_targets({t, e});
      err = add_operands(inst, 0, {toks[0]});
      break;
    }
    case Opcode::Ret: {
      if (!rest.empty()) return "ret takes no operands";
      inst = bb->append(std::make_unique<Instruction>(Opcode::Ret, ScalarType::Void,
                                                      std::vector<Value*>{}));
      break;
    }
    case Opcode::Select: {
      const auto toks = split_fields(rest, ',');
      if (toks.size() != 3) return "select needs three operands";
      // Result type follows the true arm: literal form or earlier def.
      ScalarType type = ScalarType::Real;
      Value* arm = nullptr;
      if (resolve(std::string(trim(toks[1])), arm) && arm) type = arm->type();
      inst = bb->append(std::make_unique<Instruction>(
          Opcode::Select, type, std::vector<Value*>{nullptr, nullptr, nullptr}));
      err = add_operands(inst, 0, toks);
      break;
    }
    default: {
      const auto toks = rest.empty() ? std::vector<std::string>{}
                                     : split_fields(rest, ',');
      inst = bb->append(std::make_unique<Instruction>(
          *op, result_type_of(*op), std::vector<Value*>(toks.size(), nullptr)));
      err = add_operands(inst, 0, toks);
      break;
    }
    }
    if (!err.empty()) return err;

    if (has_result) by_id_[result_id] = inst;
    return "";
  }

  /// An operand naming an instruction defined later in the text.
  struct Pending {
    Instruction* inst = nullptr;
    std::size_t slot = 0;
    std::string token;
    int line_no = 0;
  };

  Module& module_;
  std::string_view text_;
  Function* function_ = nullptr;
  int line_no_ = 0; ///< source line of the instruction being parsed
  std::map<std::int64_t, Instruction*> by_id_;
  std::vector<Pending> pending_;
};

} // namespace

ParseResult parse_function(Module& module, std::string_view text) {
  return Parser(module, text).run();
}

} // namespace luis::ir
