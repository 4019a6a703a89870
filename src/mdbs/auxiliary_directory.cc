#include "mdbs/auxiliary_directory.h"

#include "common/string_util.h"

namespace msql::mdbs {

namespace {
std::string CommitWord(bool autocommits) {
  return autocommits ? "COMMIT" : "NOCOMMIT";
}
}  // namespace

bool ServiceDescriptor::Supports2pcFor(relational::StatementKind kind) const {
  using relational::StatementKind;
  bool verb_autocommits = false;
  switch (kind) {
    case StatementKind::kCreateTable:
      verb_autocommits = ddl_modes.create_autocommits;
      break;
    case StatementKind::kInsert:
      verb_autocommits = ddl_modes.insert_autocommits;
      break;
    case StatementKind::kDropTable:
      verb_autocommits = ddl_modes.drop_autocommits;
      break;
    default:
      break;
  }
  return SupportsTwoPhaseCommit() && !verb_autocommits;
}

std::string ServiceDescriptor::ToIncorporateSql() const {
  std::string out = "INCORPORATE SERVICE " + name;
  if (!site.empty()) out += " SITE " + site;
  out += " CONNECTMODE ";
  out += connect_mode ? "CONNECT" : "NOCONNECT";
  out += " COMMITMODE " + CommitWord(autocommit_only);
  out += " CREATE " + CommitWord(ddl_modes.create_autocommits);
  out += " INSERT " + CommitWord(ddl_modes.insert_autocommits);
  out += " DROP " + CommitWord(ddl_modes.drop_autocommits);
  return out;
}

void AuxiliaryDirectory::Incorporate(ServiceDescriptor descriptor) {
  descriptor.name = ToLower(descriptor.name);
  descriptor.site = ToLower(descriptor.site);
  services_[descriptor.name] = std::move(descriptor);
}

bool AuxiliaryDirectory::HasService(std::string_view name) const {
  return services_.count(ToLower(name)) > 0;
}

Result<const ServiceDescriptor*> AuxiliaryDirectory::GetService(
    std::string_view name) const {
  auto it = services_.find(ToLower(name));
  if (it == services_.end()) {
    return Status::NotFound("service '" + std::string(name) +
                            "' has not been incorporated");
  }
  return &it->second;
}

Status AuxiliaryDirectory::RemoveService(std::string_view name) {
  if (services_.erase(ToLower(name)) == 0) {
    return Status::NotFound("service '" + std::string(name) +
                            "' has not been incorporated");
  }
  return Status::OK();
}

}  // namespace msql::mdbs
