// API registration for the app-level targets. Two tiers of entry points:
//   * raw byte entries (http_handle_raw, json_parse) — what byte-buffer fuzzers drive, and
//   * structured/pseudo entries (http_request, syz_json_doc) — the API-aware specs EOF
//     generates from, which assemble well-formed inputs before hitting the same parsers.

#include <algorithm>

#include "src/apps/apps.h"
#include "src/common/strings.h"
#include "src/kernel/costs.h"
#include "src/kernel/coverage.h"
#include "src/kernel/kernel_context.h"

namespace eof {
namespace apps {
namespace {

EOF_COV_MODULE("apps/http");

int64_t ApiServerStart(KernelContext& ctx, AppsState& state,
                       const std::vector<ArgValue>& args) {
  return HttpServerStart(ctx, state, static_cast<uint16_t>(args[0].scalar));
}

int64_t ApiHandleRaw(KernelContext& ctx, AppsState& state,
                     const std::vector<ArgValue>& args) {
  return HttpHandleRaw(ctx, state, args[0].AsString());
}

// Structured request builder: assembles a syntactically valid request from typed pieces,
// then feeds the same parser. This is what "API-aware" buys: preconditions (CRLF framing,
// content-length arithmetic) hold by construction, so deeper handlers execute.
int64_t ApiRequest(KernelContext& ctx, AppsState& state, const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles / 2);
  EOF_COV(ctx);
  static const char* kMethods[] = {"GET", "POST", "PUT", "DELETE", "HEAD", "PATCH"};
  uint64_t method_index = args[0].scalar;
  std::string method =
      kMethods[method_index < 6 ? method_index : 0];
  std::string path = args[1].AsString();
  if (path.empty() || path[0] != '/') {
    path = "/" + path;
  }
  std::string query = args[2].AsString();
  bool with_auth = args[3].scalar != 0;
  const std::vector<uint8_t>& body_bytes = args[4].bytes;
  std::string body(body_bytes.begin(), body_bytes.end());
  bool chunked = args[5].scalar != 0;

  std::string raw = method + " " + path;
  if (!query.empty()) {
    raw += "?" + query;
  }
  raw += " HTTP/1.1\r\nhost: device.local\r\n";
  if (with_auth) {
    raw += "authorization: Bearer " + state.auth_token + "\r\n";
  }
  if (chunked && !body.empty()) {
    raw += "transfer-encoding: chunked\r\n\r\n";
    raw += StrFormat("%zx\r\n", body.size()) + body + "\r\n0\r\n\r\n";
  } else {
    raw += StrFormat("content-length: %zu\r\n\r\n", body.size()) + body;
  }
  return HttpHandleRaw(ctx, state, raw);
}

int64_t ApiJsonParse(KernelContext& ctx, AppsState& state,
                     const std::vector<ArgValue>& args) {
  return JsonParse(ctx, state, args[0].AsString());
}

// Pseudo-syscall: emit a well-formed document of the requested shape and parse it —
// covering the deep happy paths random bytes rarely assemble.
int64_t ApiSyzJsonDoc(KernelContext& ctx, AppsState& state,
                      const std::vector<ArgValue>& args) {
  ctx.ConsumeCycles(kApiBaseCycles / 2);
  EOF_COV(ctx);
  // Typical generated documents stay shallow; deep nesting only arrives through evolved
  // raw inputs on the json_parse path.
  uint64_t depth = std::min<uint64_t>(args[0].scalar, 4);
  uint64_t width = std::min<uint64_t>(args[1].scalar, 8);
  uint64_t flavor = args[2].scalar % 4;
  std::string doc;
  for (uint64_t d = 0; d < depth; ++d) {
    doc += (d % 2 == 0) ? "{\"k\":" : "[";
  }
  switch (flavor) {
    case 0:
      doc += "-12.5e+3";
      break;
    case 1:
      doc += "\"v\\u0041\\n\"";
      break;
    case 2:
      doc += "true";
      break;
    default:
      doc += "null";
      break;
  }
  for (uint64_t w = 1; w < width; ++w) {
    doc += (flavor % 2 == 0) ? ",0" : ",false";
  }
  for (uint64_t d = depth; d > 0; --d) {
    doc += (d % 2 == 1) ? "}" : "]";
  }
  return JsonParse(ctx, state, doc);
}

}  // namespace

Status RegisterAppApis(ApiTable<AppsState>& table) {
  {
    ApiSpec spec;
    spec.name = "http_server_start";
    spec.subsystem = "http";
    spec.doc = "bind the HTTP server to a port";
    spec.args = {ArgSpec::Scalar("port", 16, 0, 65535)};
    RETURN_IF_ERROR(table.Register(std::move(spec), ApiServerStart));
  }
  {
    ApiSpec spec;
    spec.name = "http_handle_raw";
    spec.subsystem = "http";
    spec.doc = "feed raw request bytes to the server";
    spec.args = {ArgSpec::Buffer("request", 0, 1024)};
    RETURN_IF_ERROR(table.Register(std::move(spec), ApiHandleRaw));
  }
  {
    ApiSpec spec;
    spec.name = "http_request";
    spec.subsystem = "http";
    spec.doc = "issue a structured request (method, path, query, auth, body, chunked)";
    spec.args = {ArgSpec::Flags("method", {0, 1, 2, 3, 4, 5}),
                 ArgSpec::String("path", {"/", "/index.html", "/api/status", "/api/led",
                                          "/upload", "/files/a.txt", "/files/../etc"}),
                 ArgSpec::String("query", {"", "verbose=1", "v=0&x=2"}),
                 ArgSpec::Scalar("with_auth", 8, 0, 1), ArgSpec::Buffer("body", 0, 512),
                 ArgSpec::Scalar("chunked", 8, 0, 1)};
    RETURN_IF_ERROR(table.Register(std::move(spec), ApiRequest));
  }
  {
    ApiSpec spec;
    spec.name = "json_parse";
    spec.subsystem = "json";
    spec.doc = "parse a JSON document from raw bytes";
    spec.args = {ArgSpec::Buffer("doc", 0, 512)};
    RETURN_IF_ERROR(table.Register(std::move(spec), ApiJsonParse));
  }
  {
    ApiSpec spec;
    spec.name = "syz_json_doc";
    spec.subsystem = "json";
    spec.doc = "generate a well-formed document of a given shape and parse it";
    spec.args = {ArgSpec::Scalar("depth", 8, 0, 16), ArgSpec::Scalar("width", 8, 0, 8),
                 ArgSpec::Scalar("flavor", 8, 0, 3)};
    spec.is_pseudo = true;
    spec.extended_spec = true;
    RETURN_IF_ERROR(table.Register(std::move(spec), ApiSyzJsonDoc));
  }
  return OkStatus();
}

}  // namespace apps
}  // namespace eof
