// The rt_object registry: every kernel object carries a name and class type, and the
// registry APIs operate on raw object pointers with RT_ASSERT-style checking.
//
// ── Bug #5 (Table 2): RT-Thread / Kernel / Kernel Assertion / rt_object_get_type() ──
// rt_object_get_type(RT_NULL) fires RT_ASSERT(object != RT_NULL); the assertion prints on
// the console and the core parks in the abort loop. Detected by the log monitor.
//
// ── Bug #8 (Table 2): RT-Thread / Kernel / Kernel Assertion / rt_object_init() ──
// Statically initialising an object whose name already exists in the same class container
// fires RT_ASSERT(object != iter_object) in the duplicate scan — again console text plus a
// parked core, caught by the log monitor.

#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"
#include "src/os/rtthread/apis.h"

namespace eof {
namespace rtthread {
namespace {

EOF_COV_MODULE("rtthread/object");

constexpr size_t RT_NAME_MAX = 8;

int64_t ObjectInit(KernelContext& ctx, RtThreadState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t type_value = args[0].scalar;
  std::string name = args[1].AsString().substr(0, RT_NAME_MAX);
  if (type_value == 0 || type_value > 9) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  ObjectClass type = static_cast<ObjectClass>(type_value);
  // Duplicate scan over the class container.
  int64_t duplicate = 0;
  uint64_t live_of_type = 0;
  state.objects.ForEach([&](int64_t handle, RtObject& object) {
    ctx.ConsumeCycles(kListOpCycles);
    if (object.detached || object.type != type) {
      return;
    }
    ++live_of_type;
    if (object.name == name) {
      duplicate = handle;
    }
  });
  if (duplicate != 0 && live_of_type >= 6) {
    // The duplicate check walks chunked container rows; with six or more live objects the
    // scan crosses a chunk boundary and the assert reads the duplicate from a stale row.
    EOF_COV(ctx);
    // BUG #8: rt_object_init on a name already present in the class container.
    ctx.AssertFail(StrFormat("(object != object_find(\"%s\")) assertion failed at "
                             "rt_object_init:342",
                             name.c_str()));
  }
  EOF_COV_BUCKET(ctx, state.objects.live() / 2);  // container population
  EOF_COV_BUCKET(ctx, type_value + 12);            // per-class container row
  RtObject object;
  object.name = name;
  object.type = type;
  object.is_static = true;
  int64_t handle = state.objects.Insert(std::move(object));
  if (handle == 0) {
    EOF_COV(ctx);
    return RT_ENOMEM;
  }
  EOF_COV(ctx);
  return handle;
}

int64_t ObjectDetach(KernelContext& ctx, RtThreadState& state,
                     const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  RtObject* object = state.objects.Find(handle);
  if (object == nullptr) {
    EOF_COV(ctx);
    return RT_EINVAL;
  }
  if (object->detached) {
    EOF_COV(ctx);
    return RT_ERROR;
  }
  EOF_COV(ctx);
  object->detached = true;
  return RT_EOK;
}

int64_t ObjectGetType(KernelContext& ctx, RtThreadState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  int64_t handle = static_cast<int64_t>(args[0].scalar);
  if (handle == 0) {
    EOF_COV(ctx);
    // BUG #5: rt_object_get_type(RT_NULL).
    ctx.AssertFail("(object != RT_NULL) assertion failed at rt_object_get_type:127");
  }
  RtObject* object = state.objects.Find(handle);
  if (object == nullptr) {
    EOF_COV(ctx);
    return static_cast<int64_t>(ObjectClass::kNull);
  }
  EOF_COV(ctx);
  return static_cast<int64_t>(object->type);
}

int64_t ObjectFind(KernelContext& ctx, RtThreadState& state,
                   const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  std::string name = args[0].AsString().substr(0, RT_NAME_MAX);
  uint64_t type_value = args[1].scalar;
  int64_t found = 0;
  state.objects.ForEach([&](int64_t handle, RtObject& object) {
    ctx.ConsumeCycles(kListOpCycles);
    if (!object.detached && object.name == name &&
        (type_value == 0 || static_cast<uint64_t>(object.type) == type_value)) {
      found = handle;
    }
  });
  if (found == 0) {
    EOF_COV(ctx);
    return 0;
  }
  EOF_COV(ctx);
  return found;
}

int64_t ObjectGetLength(KernelContext& ctx, RtThreadState& state,
                        const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles);
  EOF_COV(ctx);
  uint64_t type_value = args[0].scalar;
  int64_t count = 0;
  state.objects.ForEach([&](int64_t handle, RtObject& object) {
    (void)handle;
    ctx.ConsumeCycles(kListOpCycles);
    if (!object.detached && static_cast<uint64_t>(object.type) == type_value) {
      ++count;
    }
  });
  return count;
}

}  // namespace

Status RegisterObjectApis(ApiTable<RtThreadState>& table) {
  {
    ApiSpec spec;
    spec.name = "rt_object_init";
    spec.subsystem = "object";
    spec.doc = "statically initialise a kernel object in its class container";
    spec.args = {ArgSpec::Flags("type", {1, 2, 3, 4, 5, 6, 7, 8, 9}),
                 ArgSpec::String("name", {"obj0", "tmr1", "sem2", "dev3", "thr4"})};
    spec.produces = "rt_object";
    RETURN_IF_ERROR(table.Register(std::move(spec), ObjectInit));
  }
  {
    ApiSpec spec;
    spec.name = "rt_object_detach";
    spec.subsystem = "object";
    spec.doc = "detach a statically initialised object";
    spec.args = {ArgSpec::Resource("object", "rt_object")};
    RETURN_IF_ERROR(table.Register(std::move(spec), ObjectDetach));
  }
  {
    ApiSpec spec;
    spec.name = "rt_object_get_type";
    spec.subsystem = "object";
    spec.doc = "class type of an object";
    spec.args = {ArgSpec::Resource("object", "rt_object", /*optional_null=*/true)};
    RETURN_IF_ERROR(table.Register(std::move(spec), ObjectGetType));
  }
  {
    ApiSpec spec;
    spec.name = "rt_object_find";
    spec.subsystem = "object";
    spec.doc = "find an object by name and type";
    spec.args = {ArgSpec::String("name", {"obj0", "tmr1", "sem2", "dev3", "thr4"}),
                 ArgSpec::Scalar("type", 8, 0, 9)};
    spec.produces = "rt_object";
    RETURN_IF_ERROR(table.Register(std::move(spec), ObjectFind));
  }
  {
    ApiSpec spec;
    spec.name = "rt_object_get_length";
    spec.subsystem = "object";
    spec.doc = "number of live objects of a class";
    spec.args = {ArgSpec::Scalar("type", 8, 0, 9)};
    RETURN_IF_ERROR(table.Register(std::move(spec), ObjectGetLength));
  }
  return OkStatus();
}

}  // namespace rtthread
}  // namespace eof
