// Zephyr's descriptor-based JSON library surface: build a DOM of objects/values and
// encode it.
//
// ── Bug #3 (Table 2, confirmed): Zephyr / JSON / Kernel Panic / json_obj_encode() ──
// The encoder recurses per nesting level with a fixed-depth scratch descriptor stack of
// four frames; a fifth level smashes the adjacent encode state — kernel panic. Nesting is
// built up one json_obj_append_child() at a time, with depth edges guiding the climb.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/zephyr/apis.h"

namespace eof {
namespace zephyr {
namespace {

EOF_COV_MODULE("zephyr/json");

constexpr int kEncodeMaxDepth = 4;

int Depth(KernelContext& ctx, ZephyrState& state, int64_t handle, int guard) {
  if (guard > 16) {
    return guard;  // cycle protection in the measurement itself
  }
  JsonNode* node = state.json_nodes.Find(handle);
  if (node == nullptr || node->kind != JsonNode::Kind::kObject) {
    return 1;
  }
  int deepest = 1;
  for (int64_t child : node->children) {
    ctx.ConsumeCycles(kListOpCycles);
    deepest = std::max(deepest, 1 + Depth(ctx, state, child, guard + 1));
  }
  return deepest;
}

int64_t JsonObjInit(KernelContext& ctx, ZephyrState& state,
                    const std::vector<ArgValue>& args) {
  (void)args;
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  JsonNode node;
  node.kind = JsonNode::Kind::kObject;
  int64_t handle = state.json_nodes.Insert(std::move(node));
  if (handle == 0) {
    EOF_COV(ctx);
    return Z_ENOMEM;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t JsonObjAppendNum(KernelContext& ctx, ZephyrState& state,
                         const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  JsonNode* parent = state.json_nodes.Find(static_cast<int64_t>(args[0].scalar));
  if (parent == nullptr || parent->kind != JsonNode::Kind::kObject) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  JsonNode value;
  value.kind = JsonNode::Kind::kNumber;
  value.key = args[1].AsString().substr(0, 16);
  value.num = static_cast<int64_t>(args[2].scalar);
  int64_t handle = state.json_nodes.Insert(std::move(value));
  if (handle == 0) {
    EOF_COV(ctx);
    return Z_ENOMEM;
  }
  EOF_COV(ctx);
  // Insert can grow the table and invalidate `parent`; re-resolve before use.
  parent = state.json_nodes.Find(static_cast<int64_t>(args[0].scalar));
  parent->children.push_back(handle);
  return Z_OK;
}

int64_t JsonObjAppendStr(KernelContext& ctx, ZephyrState& state,
                         const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  JsonNode* parent = state.json_nodes.Find(static_cast<int64_t>(args[0].scalar));
  if (parent == nullptr || parent->kind != JsonNode::Kind::kObject) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  JsonNode value;
  value.kind = JsonNode::Kind::kString;
  value.key = args[1].AsString().substr(0, 16);
  value.str = args[2].AsString().substr(0, 64);
  int64_t handle = state.json_nodes.Insert(std::move(value));
  if (handle == 0) {
    EOF_COV(ctx);
    return Z_ENOMEM;
  }
  EOF_COV(ctx);
  // Insert can grow the table and invalidate `parent`; re-resolve before use.
  parent = state.json_nodes.Find(static_cast<int64_t>(args[0].scalar));
  parent->children.push_back(handle);
  return Z_OK;
}

int64_t JsonObjAppendChild(KernelContext& ctx, ZephyrState& state,
                           const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t parent_handle = static_cast<int64_t>(args[0].scalar);
  int64_t child_handle = static_cast<int64_t>(args[1].scalar);
  JsonNode* parent = state.json_nodes.Find(parent_handle);
  JsonNode* child = state.json_nodes.Find(child_handle);
  if (parent == nullptr || child == nullptr || parent == child ||
      parent->kind != JsonNode::Kind::kObject || child->kind != JsonNode::Kind::kObject) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  child->key = args[2].AsString().substr(0, 16);
  parent->children.push_back(child_handle);
  // Depth staircase: each new nesting level is a distinct edge.
  int depth = Depth(ctx, state, parent_handle, 0);
  if (depth == 2) {
    EOF_COV(ctx);
  }
  if (depth == 3) {
    EOF_COV(ctx);
  }
  if (depth == 4) {
    EOF_COV(ctx);
  }
  if (depth >= 5) {
    EOF_COV(ctx);
  }
  return Z_OK;
}

std::string Encode(KernelContext& ctx, ZephyrState& state, const JsonNode& node, int depth) {
  ctx.ConsumeCycles(kListOpCycles * 4);
  switch (node.kind) {
    case JsonNode::Kind::kNumber:
      return StrFormat("%lld", static_cast<long long>(node.num));
    case JsonNode::Kind::kString:
      return "\"" + node.str + "\"";
    case JsonNode::Kind::kBool:
      return node.boolean ? "true" : "false";
    case JsonNode::Kind::kObject: {
      std::string out = "{";
      bool first = true;
      for (int64_t child_handle : node.children) {
        JsonNode* child = state.json_nodes.Find(child_handle);
        if (child == nullptr) {
          continue;
        }
        if (!first) {
          out += ",";
        }
        first = false;
        out += "\"" + child->key + "\":" + Encode(ctx, state, *child, depth + 1);
      }
      out += "}";
      return out;
    }
  }
  return "null";
}

int64_t JsonObjEncode(KernelContext& ctx, ZephyrState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  JsonNode* node = state.json_nodes.Find(handle);
  if (node == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  int depth = Depth(ctx, state, handle, 0);
  if (depth > kEncodeMaxDepth) {
    EOF_COV(ctx);
    // BUG #3: fifth recursion frame smashes the fixed descriptor stack.
    ctx.Panic(StrFormat("FATAL: json_obj_encode: descriptor stack smashed at depth %d",
                        depth),
              "Stack frames at BUG:\n"
              " Level 1: json.c : json_obj_encode : 642\n"
              " Level 2: agent : execute_one");
  }
  EOF_COV(ctx);
  EOF_COV_BUCKET(ctx, static_cast<uint64_t>(depth));
  std::string text = Encode(ctx, state, *node, 1);
  EOF_COV_BUCKET(ctx, CovSizeClass(text.size()) + 8);
  ctx.ConsumeCycles(kCopyPerByteCycles * text.size());
  return static_cast<int64_t>(text.size());
}

int64_t JsonObjRelease(KernelContext& ctx, ZephyrState& state,
                       const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  if (state.json_nodes.Find(handle) == nullptr) {
    EOF_COV(ctx);
    return Z_EINVAL;
  }
  EOF_COV(ctx);
  state.json_nodes.Remove(handle);  // children leak, as in the modelled release
  return Z_OK;
}

}  // namespace

Status RegisterJsonApis(ApiTable<ZephyrState>& table) {
  {
    ApiSpec spec;
    spec.name = "json_obj_init";
    spec.subsystem = "json";
    spec.doc = "create an empty JSON object";
    spec.produces = "z_json";
    RETURN_IF_ERROR(table.Register(std::move(spec), JsonObjInit));
  }
  {
    ApiSpec spec;
    spec.name = "json_obj_append_num";
    spec.subsystem = "json";
    spec.doc = "append a numeric field";
    spec.args = {ArgSpec::Resource("obj", "z_json"),
                 ArgSpec::String("key", {"id", "val", "ts", "name"}),
                 ArgSpec::Scalar("value", 64, 0, UINT64_MAX)};
    RETURN_IF_ERROR(table.Register(std::move(spec), JsonObjAppendNum));
  }
  {
    ApiSpec spec;
    spec.name = "json_obj_append_str";
    spec.subsystem = "json";
    spec.doc = "append a string field";
    spec.args = {ArgSpec::Resource("obj", "z_json"),
                 ArgSpec::String("key", {"id", "val", "ts", "name"}),
                 ArgSpec::String("value")};
    RETURN_IF_ERROR(table.Register(std::move(spec), JsonObjAppendStr));
  }
  {
    ApiSpec spec;
    spec.name = "json_obj_append_child";
    spec.subsystem = "json";
    spec.doc = "nest one object inside another";
    spec.args = {ArgSpec::Resource("parent", "z_json"), ArgSpec::Resource("child", "z_json"),
                 ArgSpec::String("key", {"inner", "cfg", "meta"})};
    RETURN_IF_ERROR(table.Register(std::move(spec), JsonObjAppendChild));
  }
  {
    ApiSpec spec;
    spec.name = "json_obj_encode";
    spec.subsystem = "json";
    spec.doc = "serialise an object tree to text";
    spec.args = {ArgSpec::Resource("obj", "z_json")};
    RETURN_IF_ERROR(table.Register(std::move(spec), JsonObjEncode));
  }
  {
    ApiSpec spec;
    spec.name = "json_obj_release";
    spec.subsystem = "json";
    spec.doc = "free a JSON object";
    spec.args = {ArgSpec::Resource("obj", "z_json")};
    RETURN_IF_ERROR(table.Register(std::move(spec), JsonObjRelease));
  }
  return OkStatus();
}

}  // namespace zephyr
}  // namespace eof
