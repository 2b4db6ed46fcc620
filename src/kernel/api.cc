#include "src/kernel/api.h"

#include "src/common/strings.h"

namespace eof {

const char* ArgKindName(ArgKind kind) {
  switch (kind) {
    case ArgKind::kScalar:
      return "scalar";
    case ArgKind::kFlags:
      return "flags";
    case ArgKind::kResource:
      return "resource";
    case ArgKind::kBuffer:
      return "buffer";
    case ArgKind::kString:
      return "string";
    case ArgKind::kLen:
      return "len";
  }
  return "?";
}

ArgSpec ArgSpec::Scalar(std::string name, unsigned bits, uint64_t min, uint64_t max) {
  ArgSpec spec;
  spec.name = std::move(name);
  spec.kind = ArgKind::kScalar;
  spec.bits = bits;
  spec.min = min;
  spec.max = max;
  return spec;
}

ArgSpec ArgSpec::Flags(std::string name, std::vector<uint64_t> values, bool combinable) {
  ArgSpec spec;
  spec.name = std::move(name);
  spec.kind = ArgKind::kFlags;
  spec.flag_values = std::move(values);
  spec.combinable = combinable;
  return spec;
}

ArgSpec ArgSpec::Resource(std::string name, std::string kind, bool optional_null) {
  ArgSpec spec;
  spec.name = std::move(name);
  spec.kind = ArgKind::kResource;
  spec.resource_kind = std::move(kind);
  spec.optional_null = optional_null;
  return spec;
}

ArgSpec ArgSpec::Buffer(std::string name, uint64_t min_len, uint64_t max_len) {
  ArgSpec spec;
  spec.name = std::move(name);
  spec.kind = ArgKind::kBuffer;
  spec.buf_min = min_len;
  spec.buf_max = max_len;
  return spec;
}

ArgSpec ArgSpec::String(std::string name, std::vector<std::string> candidates) {
  ArgSpec spec;
  spec.name = std::move(name);
  spec.kind = ArgKind::kString;
  spec.string_set = std::move(candidates);
  return spec;
}

ArgSpec ArgSpec::Len(std::string name, int buffer_index) {
  ArgSpec spec;
  spec.name = std::move(name);
  spec.kind = ArgKind::kLen;
  spec.len_of = buffer_index;
  return spec;
}

Status ApiRegistry::AddSpec(ApiSpec spec) {
  if (by_name_.count(spec.name) != 0) {
    return AlreadyExistsError(StrFormat("API '%s' already registered", spec.name.c_str()));
  }
  for (size_t i = 0; i < spec.args.size(); ++i) {
    const ArgSpec& arg = spec.args[i];
    if (arg.kind == ArgKind::kLen &&
        (arg.len_of < 0 || static_cast<size_t>(arg.len_of) >= spec.args.size() ||
         (spec.args[static_cast<size_t>(arg.len_of)].kind != ArgKind::kBuffer &&
          spec.args[static_cast<size_t>(arg.len_of)].kind != ArgKind::kString))) {
      return InvalidArgumentError(StrFormat("API '%s' arg %zu: len_of must reference a buffer",
                                            spec.name.c_str(), i));
    }
    if (arg.kind == ArgKind::kFlags && arg.flag_values.empty()) {
      return InvalidArgumentError(
          StrFormat("API '%s' arg '%s': empty flag set", spec.name.c_str(), arg.name.c_str()));
    }
    if (arg.kind == ArgKind::kResource && arg.resource_kind.empty()) {
      return InvalidArgumentError(StrFormat("API '%s' arg '%s': resource kind missing",
                                            spec.name.c_str(), arg.name.c_str()));
    }
  }
  spec.id = static_cast<uint32_t>(specs_.size());
  by_name_[spec.name] = spec.id;
  specs_.push_back(std::move(spec));
  return OkStatus();
}

const ApiSpec* ApiRegistry::FindById(uint32_t id) const {
  if (id >= specs_.size()) {
    return nullptr;
  }
  return &specs_[id];
}

const ApiSpec* ApiRegistry::FindByName(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return nullptr;
  }
  return &specs_[it->second];
}

Status ApiRegistry::CheckCall(uint32_t id, size_t arg_count) const {
  if (id >= specs_.size()) {
    return NotFoundError(StrFormat("no API with id %u", id));
  }
  if (arg_count != specs_[id].args.size()) {
    return InvalidArgumentError(StrFormat("API '%s' expects %zu args, got %zu",
                                          specs_[id].name.c_str(), specs_[id].args.size(),
                                          arg_count));
  }
  return OkStatus();
}

}  // namespace eof
