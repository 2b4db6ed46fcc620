#include "src/telemetry/rows.h"

#include <algorithm>
#include <charconv>
#include <climits>
#include <utility>

#include "src/common/strings.h"

namespace eof {
namespace telemetry {

uint64_t Metric::Read(const MetricsSnapshot& snapshot) const {
  switch (kind) {
    case Kind::kNone:
      return 0;
    case Kind::kCounter:
      return snapshot.CounterValue(name);
    case Kind::kGauge:
      return snapshot.GaugeValue(name);
    case Kind::kSpanSum: {
      auto it = snapshot.histograms.find(name);
      return it == snapshot.histograms.end() ? 0 : it->second.sum;
    }
  }
  return 0;
}

uint64_t BoardAccounting::OtherUs() const {
  // recovery_us already contains any reflash performed during recovery, so the
  // attributed total counts reflash time only once (standalone reflashes outside a
  // recovery span do not occur in the current executor, but guard anyway).
  uint64_t attributed = exec_us + drain_us + recovery_us + deploy_us;
  uint64_t standalone_reflash = reflash_us > recovery_us ? reflash_us - recovery_us : 0;
  attributed += standalone_reflash;
  return clock > attributed ? clock - attributed : 0;
}

namespace {

// Fills each Metric-tagged column from a registry snapshot; skips the rest.
class MetricReader {
 public:
  explicit MetricReader(const MetricsSnapshot& snapshot) : snapshot_(snapshot) {}

  MetricReader& operator()(const char* /*key*/, uint64_t& value, Metric metric = {}) {
    if (metric.kind != Metric::Kind::kNone) {
      value = metric.Read(snapshot_);
    }
    return *this;
  }

  template <class T>
  MetricReader& operator()(const char* /*key*/, T& /*derived*/) {
    return *this;
  }

 private:
  const MetricsSnapshot& snapshot_;
};

}  // namespace

BoardAccounting BoardColumnsOf(const MetricsSnapshot& snapshot) {
  BoardAccounting columns;
  MetricReader reader(snapshot);
  Fields(reader, columns);
  return columns;
}

CampaignColumns CampaignColumnsOf(const MetricsSnapshot& snapshot) {
  CampaignColumns columns;
  MetricReader reader(snapshot);
  Fields(reader, columns);
  return columns;
}

void JsonWriter::Key(const char* key) {
  if (!out_->empty() && out_->back() != '{') {
    *out_ += ',';
  }
  *out_ += StrFormat("\"%s\":", key);
}

JsonWriter& JsonWriter::operator()(const char* key, uint64_t value, Metric) {
  Key(key);
  *out_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  return *this;
}

JsonWriter& JsonWriter::operator()(const char* key, int value) {
  return (*this)(key, static_cast<uint64_t>(value));
}

JsonWriter& JsonWriter::operator()(const char* key, double value) {
  Key(key);
  *out_ += StrFormat("%.4f", value);
  return *this;
}

JsonWriter& JsonWriter::operator()(const char* key, const std::string& value) {
  Key(key);
  *out_ += '"';
  *out_ += JsonEscape(value);
  *out_ += '"';
  return *this;
}

namespace {

// Minimal strict parser for the flat JSON objects a journal holds: string keys,
// and string / unsigned / real values. Anything nested is a parse error — the
// journal never produces it, so seeing it means the file is not a journal.
class LineParser {
 public:
  explicit LineParser(std::string_view text) : text_(text) {}

  Status Parse(JournalRow* row) {
    SkipSpace();
    if (!Consume('{')) {
      return InvalidArgumentError("expected '{'");
    }
    SkipSpace();
    for (bool more = !Consume('}'); more;) {
      std::string key;
      RETURN_IF_ERROR(ParseString(&key));
      if (row->uints.count(key) + row->reals.count(key) + row->texts.count(key) > 0) {
        return InvalidArgumentError("key '" + key + "' repeats");
      }
      SkipSpace();
      if (!Consume(':')) {
        return InvalidArgumentError("expected ':' after key '" + key + "'");
      }
      SkipSpace();
      RETURN_IF_ERROR(ParseValue(key, row));
      SkipSpace();
      more = Consume(',');
      SkipSpace();
      if (!more && !Consume('}')) {
        return InvalidArgumentError("expected ',' or '}' after value of '" + key + "'");
      }
    }
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgumentError("trailing characters after object");
    }
    return FinishRow(row);
  }

 private:
  // Lifts the envelope out of the maps.
  static Status FinishRow(JournalRow* row) {
    auto type = row->texts.find("type");
    auto at = row->uints.find("t_us");
    if (type == row->texts.end() || at == row->uints.end()) {
      return InvalidArgumentError("row needs a string \"type\" and an unsigned \"t_us\"");
    }
    row->type = std::move(type->second);
    row->texts.erase(type);
    row->at = at->second;
    row->uints.erase(at);
    auto worker = row->uints.find("worker");
    if (row->reals.count("worker") + row->texts.count("worker") > 0 ||
        (worker != row->uints.end() && worker->second > static_cast<uint64_t>(INT_MAX))) {
      return InvalidArgumentError("\"worker\" is not a board index");
    }
    if (worker != row->uints.end()) {
      row->worker = static_cast<int>(worker->second);
      row->uints.erase(worker);
    }
    return OkStatus();
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) {
      return InvalidArgumentError("expected '\"'");
    }
    out->clear();
    while (true) {
      // Copy the run up to the next quote or escape in one append.
      size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
        ++run;
      }
      out->append(text_, pos_, run - pos_);
      pos_ = run + 1;
      if (run < text_.size() && text_[run] == '"') {
        return OkStatus();
      }
      if (pos_ >= text_.size()) {
        return InvalidArgumentError("unterminated string");
      }
      constexpr std::string_view kEscapes = "\"\\/bfnrt";
      constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
      char escape = text_[pos_++];
      if (size_t at = kEscapes.find(escape); at != std::string_view::npos) {
        *out += kDecoded[at];
        continue;
      }
      unsigned code = 0;
      const char* hex = text_.data() + pos_;
      auto [end, error] =
          std::from_chars(hex, hex + std::min<size_t>(4, text_.size() - pos_), code, 16);
      if (escape != 'u' || error != std::errc() || end != hex + 4) {
        return InvalidArgumentError(StrFormat("bad escape '\\%c'", escape));
      }
      pos_ += 4;
      // The journal only escapes control bytes; encode anything else as UTF-8.
      if (code < 0x80) {
        *out += static_cast<char>(code);
      } else if (code < 0x800) {
        *out += static_cast<char>(0xC0 | (code >> 6));
        *out += static_cast<char>(0x80 | (code & 0x3F));
      } else {
        *out += static_cast<char>(0xE0 | (code >> 12));
        *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
        *out += static_cast<char>(0x80 | (code & 0x3F));
      }
    }
  }

  Status ParseValue(const std::string& key, JournalRow* row) {
    if (pos_ < text_.size() && text_[pos_] == '"') {
      return ParseString(&row->texts[key]);
    }
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view("0123456789+-.eE").find(text_[pos_]) != std::string_view::npos) {
      ++pos_;
    }
    std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty()) {
      return InvalidArgumentError("expected a string or number value for '" + key +
                                  "' (the journal holds nothing else)");
    }
    const char* end = token.data() + token.size();
    std::from_chars_result parsed;
    if (token.find_first_of("-.eE") != std::string_view::npos) {
      parsed = std::from_chars(token.data(), end, row->reals[key]);
    } else {
      parsed = std::from_chars(token.data(), end, row->uints[key]);
    }
    if (parsed.ec == std::errc::result_out_of_range) {
      return InvalidArgumentError(StrFormat("number '%s' overflows", std::string(token).c_str()));
    }
    if (parsed.ec != std::errc() || parsed.ptr != end) {
      return InvalidArgumentError(StrFormat("malformed number '%s'", std::string(token).c_str()));
    }
    return OkStatus();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// Moves each visited field out of a copy of the parsed row. The first error
// sticks; Finish then rejects any key the list left behind.
class RowReader {
 public:
  explicit RowReader(JournalRow row) : row_(std::move(row)) {}

  RowReader& operator()(const char* key, uint64_t& value, Metric = {}) {
    return Take(&row_.uints, key, "an unsigned integer", &value);
  }

  RowReader& operator()(const char* key, int& value) {
    uint64_t wide = 0;
    (*this)(key, wide);
    if (status_.ok() && wide > static_cast<uint64_t>(INT_MAX)) {
      status_ = InvalidArgumentError(StrFormat("'%s' overflows an int", key));
    }
    value = static_cast<int>(wide);
    return *this;
  }

  RowReader& operator()(const char* key, double& value) {
    return Take(&row_.reals, key, "a real", &value);
  }

  RowReader& operator()(const char* key, std::string& value) {
    return Take(&row_.texts, key, "a string", &value);
  }

  template <class Columns>
  RowReader& operator()(Columns& nested) {
    Fields(*this, nested);
    return *this;
  }

  template <class T>
  RowReader& Optional(const char* key, T& value) {
    return Has(key) ? (*this)(key, value) : *this;
  }

  Status Finish() const {
    RETURN_IF_ERROR(status_);
    for (const std::string* left :
         {row_.uints.empty() ? nullptr : &row_.uints.begin()->first,
          row_.reals.empty() ? nullptr : &row_.reals.begin()->first,
          row_.texts.empty() ? nullptr : &row_.texts.begin()->first}) {
      if (left != nullptr) {
        return InvalidArgumentError("unknown key '" + *left + "'");
      }
    }
    return OkStatus();
  }

 private:
  bool Has(const char* key) const {
    return row_.uints.count(key) > 0 || row_.reals.count(key) > 0 ||
           row_.texts.count(key) > 0;
  }

  template <class T>
  RowReader& Take(std::map<std::string, T>* values, const char* key, const char* kind,
                  T* out) {
    if (!status_.ok()) {
      return *this;
    }
    auto it = values->find(key);
    if (it == values->end()) {
      status_ = InvalidArgumentError(Has(key) ? StrFormat("'%s' is not %s", key, kind)
                                              : StrFormat("missing key '%s'", key));
      return *this;
    }
    *out = std::move(it->second);
    values->erase(it);
    return *this;
  }

  JournalRow row_;
  Status status_;
};

template <class Row>
Result<AnyRow> DecodeAs(const JournalRow& row) {
  AnyRow out(std::in_place_type<Row>);
  RowReader reader(row);
  Fields(reader, std::get<Row>(out));
  RETURN_IF_ERROR(reader.Finish());
  return out;
}

// Decodes through the first alternative whose type name matches.
template <size_t... I>
Result<AnyRow> DecodeByType(const JournalRow& row, std::index_sequence<I...>) {
  Result<AnyRow> out = InvalidArgumentError("unknown row type '" + row.type + "'");
  (void)((row.type == std::variant_alternative_t<I, AnyRow>::kType &&
          (out = DecodeAs<std::variant_alternative_t<I, AnyRow>>(row), true)) ||
         ...);
  return out;
}

}  // namespace

Result<JournalRow> ParseJournalLine(std::string_view line) {
  JournalRow row;
  RETURN_IF_ERROR(LineParser(line).Parse(&row));
  return row;
}

Result<AnyRow> DecodeRow(const JournalRow& row) {
  // Two writers share farm_snapshot; the orchestrator's row alone has a campaign id.
  bool fleet_farm = row.type == FleetFarmSnapshotRow::kType &&
                    row.texts.count(FleetFarmSnapshotRow::kCampaignKey) > 0;
  Result<AnyRow> typed =
      fleet_farm ? DecodeAs<FleetFarmSnapshotRow>(row)
                 : DecodeByType(row, std::make_index_sequence<std::variant_size_v<AnyRow>>());
  if (!typed.ok()) {
    return InvalidArgumentError(
        StrFormat("%s row: %s", row.type.c_str(), typed.status().message().c_str()));
  }
  return typed;
}

Result<std::vector<JournalRow>> ParseJournal(std::string_view text) {
  std::vector<JournalRow> rows;
  size_t line_number = 0;
  size_t begin = 0;
  while (begin <= text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    ++line_number;
    std::string_view line = StripWhitespace(text.substr(begin, end - begin));
    if (!line.empty()) {
      Result<JournalRow> row = ParseJournalLine(line);
      Status status = row.ok() ? DecodeRow(row.value()).status() : row.status();
      if (!status.ok()) {
        return InvalidArgumentError(
            StrFormat("line %zu: %s", line_number, status.message().c_str()));
      }
      rows.push_back(std::move(row).value());
    }
    if (end == text.size()) {
      break;
    }
    begin = end + 1;
  }
  return rows;
}

}  // namespace telemetry
}  // namespace eof
