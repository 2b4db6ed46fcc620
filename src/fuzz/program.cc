#include "src/fuzz/program.h"

#include "src/common/hash.h"
#include "src/common/strings.h"

namespace eof {
namespace fuzz {

void WriteCall(WireWriter* writer, uint32_t api_id, const std::vector<ProgArg>& args) {
  writer->Call(api_id, args.size());
  for (const ProgArg& arg : args) {
    switch (arg.kind) {
      case ProgArg::Kind::kScalar:
        writer->Scalar(arg.scalar);
        break;
      case ProgArg::Kind::kResult:
        writer->ResultRef(static_cast<uint16_t>(arg.ref));
        break;
      case ProgArg::Kind::kBytes:
        writer->Bytes(arg.bytes.data(), arg.bytes.size());
        break;
    }
  }
}

void Program::Encode(const spec::CompiledSpecs& specs, std::vector<uint8_t>* out) const {
  WireWriter writer(out);
  for (const ProgCall& call : calls) {
    WriteCall(&writer, specs.calls[call.spec_index].api_id, call.args);
  }
}

uint64_t Program::Hash() const {
  uint64_t hash = kFnvOffsetBasis;
  for (const ProgCall& call : calls) {
    hash = HashCombine(hash, call.spec_index);
    for (const ProgArg& arg : call.args) {
      hash = HashCombine(hash, static_cast<uint64_t>(arg.kind));
      switch (arg.kind) {
        case ProgArg::Kind::kScalar:
          hash = HashCombine(hash, arg.scalar);
          break;
        case ProgArg::Kind::kResult:
          hash = HashCombine(hash, static_cast<uint64_t>(arg.ref));
          break;
        case ProgArg::Kind::kBytes:
          hash = Fnv1aBytes(arg.bytes.data(), arg.bytes.size(), hash);
          break;
      }
    }
  }
  return hash;
}

bool Program::RefsValid() const {
  for (size_t i = 0; i < calls.size(); ++i) {
    for (const ProgArg& arg : calls[i].args) {
      if (arg.kind == ProgArg::Kind::kResult &&
          (arg.ref < 0 || static_cast<size_t>(arg.ref) >= i)) {
        return false;
      }
    }
  }
  return true;
}

std::string Program::Format(const spec::CompiledSpecs& specs) const {
  std::string out;
  for (size_t i = 0; i < calls.size(); ++i) {
    const ProgCall& call = calls[i];
    const spec::CompiledCall& decl = specs.calls[call.spec_index];
    out += StrFormat("r%zu = %s(", i, decl.name.c_str());
    for (size_t a = 0; a < call.args.size(); ++a) {
      if (a != 0) {
        out += ", ";
      }
      const ProgArg& arg = call.args[a];
      switch (arg.kind) {
        case ProgArg::Kind::kScalar:
          out += StrFormat("0x%llx", static_cast<unsigned long long>(arg.scalar));
          break;
        case ProgArg::Kind::kResult:
          out += StrFormat("r%d", arg.ref);
          break;
        case ProgArg::Kind::kBytes:
          if (arg.bytes.size() <= 16) {
            out += "\"" + BytesToHex(arg.bytes.data(), arg.bytes.size()) + "\"";
          } else {
            out += StrFormat("bytes[%zu]", arg.bytes.size());
          }
          break;
      }
    }
    out += ")\n";
  }
  return out;
}

}  // namespace fuzz
}  // namespace eof
