#include "analysis/diagnostics.h"

#include <algorithm>
#include <sstream>

namespace msql::analysis {

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

std::string SourceSpan::ToString() const {
  if (!known()) return "";
  std::ostringstream out;
  out << "line " << line << " col " << column;
  return out.str();
}

std::string Diagnostic::Render() const {
  std::ostringstream out;
  out << SeverityName(severity) << "[" << code << "]";
  if (span.known()) out << " " << span.ToString();
  out << ": " << message;
  return out.str();
}

namespace {

/// Returns the 1-based `line` of `source`, without its trailing newline.
std::string_view SourceLine(std::string_view source, int line) {
  int current = 1;
  size_t start = 0;
  while (current < line) {
    size_t nl = source.find('\n', start);
    if (nl == std::string_view::npos) return {};
    start = nl + 1;
    ++current;
  }
  size_t end = source.find('\n', start);
  if (end == std::string_view::npos) end = source.size();
  return source.substr(start, end - start);
}

constexpr int kTabWidth = 4;

/// Expands tabs to spaces at kTabWidth stops. `columns`, when given,
/// maps 1-based source columns (as the lexer counts them: one column per
/// character, tabs included) to 1-based columns in the expanded text so
/// the caret lines up under the excerpt.
std::string ExpandTabs(std::string_view text, std::vector<int>* columns) {
  std::string out;
  out.reserve(text.size());
  if (columns) columns->clear();
  for (char c : text) {
    if (columns) columns->push_back(static_cast<int>(out.size()) + 1);
    if (c == '\t') {
      out.append(kTabWidth - out.size() % kTabWidth, ' ');
    } else {
      out.push_back(c);
    }
  }
  if (columns) columns->push_back(static_cast<int>(out.size()) + 1);
  return out;
}

}  // namespace

std::string Diagnostic::RenderPretty(std::string_view source) const {
  std::ostringstream out;
  out << Render();
  if (span.known()) {
    std::string_view text = SourceLine(source, span.line);
    if (!text.empty()) {
      std::vector<int> columns;
      std::string expanded = ExpandTabs(text, &columns);
      std::string gutter = std::to_string(span.line);
      out << "\n  " << gutter << " | " << expanded;
      out << "\n  " << std::string(gutter.size(), ' ') << " | ";
      int raw_col =
          std::min<int>(span.column, static_cast<int>(text.size()) + 1);
      int caret_col = columns[raw_col > 0 ? raw_col - 1 : 0];
      out << std::string(caret_col > 0 ? caret_col - 1 : 0, ' ');
      out << "^" << std::string(span.length > 1 ? span.length - 1 : 0, '~');
    }
  }
  if (!fix_hint.empty()) out << "\n  help: " << fix_hint;
  return out.str();
}

Diagnostic& DiagnosticList::Add(std::string_view code, Severity severity,
                                SourceSpan span, std::string message,
                                std::string fix_hint) {
  Diagnostic d;
  d.code = std::string(code);
  d.severity = severity;
  d.span = span;
  d.message = std::move(message);
  d.fix_hint = std::move(fix_hint);
  items_.push_back(std::move(d));
  return items_.back();
}

void DiagnosticList::Append(const DiagnosticList& other) {
  items_.insert(items_.end(), other.items_.begin(), other.items_.end());
}

size_t DiagnosticList::error_count() const {
  return static_cast<size_t>(
      std::count_if(items_.begin(), items_.end(), [](const Diagnostic& d) {
        return d.severity == Severity::kError;
      }));
}

size_t DiagnosticList::warning_count() const {
  return static_cast<size_t>(
      std::count_if(items_.begin(), items_.end(), [](const Diagnostic& d) {
        return d.severity == Severity::kWarning;
      }));
}

const Diagnostic* DiagnosticList::Find(std::string_view code) const {
  for (const Diagnostic& d : items_) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

std::string DiagnosticList::RenderAll() const {
  std::ostringstream out;
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) out << "\n";
    out << items_[i].Render();
  }
  return out.str();
}

Status DiagnosticList::ToStatus() const {
  if (!has_errors()) return Status::OK();
  std::ostringstream out;
  bool first = true;
  for (const Diagnostic& d : items_) {
    if (d.severity != Severity::kError) continue;
    if (!first) out << "\n";
    first = false;
    out << d.Render();
  }
  return Status::InvalidArgument(out.str());
}

}  // namespace msql::analysis
