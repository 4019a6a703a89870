#ifndef MSQL_MDBS_AUXILIARY_DIRECTORY_H_
#define MSQL_MDBS_AUXILIARY_DIRECTORY_H_

#include <map>
#include <string>
#include <string_view>

#include "common/result.h"
#include "relational/sql/ast.h"

namespace msql::mdbs {

/// Per-DDL-verb commit behaviour recorded by INCORPORATE (§3.1): whether
/// the verb auto-commits on this LDBMS (COMMIT) or participates in the
/// 2PC protocol (NOCOMMIT). "This is necessary to cope with subtle
/// heterogeneities that play an important role in the definition of the
/// semantics of multidatabase commit and rollback."
struct DdlCommitModes {
  bool create_autocommits = false;
  bool insert_autocommits = false;
  bool drop_autocommits = false;
};

/// One Auxiliary Directory entry: everything the MDBS must know to reach
/// and coordinate a service.
struct ServiceDescriptor {
  std::string name;
  std::string site;
  /// CONNECTMODE CONNECT: the LDBMS supports multiple databases;
  /// NOCONNECT: it serves one default database only.
  bool connect_mode = true;
  /// COMMITMODE COMMIT: automatic commit only; NOCOMMIT: the LDBMS
  /// exposes a two-phase-commit (prepared-to-commit) interface.
  bool autocommit_only = false;
  DdlCommitModes ddl_modes;

  /// True if the service can hold a visible prepared state.
  bool SupportsTwoPhaseCommit() const { return !autocommit_only; }
  /// True if a statement of `kind` can take part in 2PC here: the
  /// service supports it and the verb does not auto-commit (the
  /// per-verb modes recorded by INCORPORATE).
  bool Supports2pcFor(relational::StatementKind kind) const;

  /// INCORPORATE statement text that would reproduce this entry.
  std::string ToIncorporateSql() const;
};

/// The Auxiliary Directory: registry of incorporated services.
class AuxiliaryDirectory {
 public:
  /// Inserts or replaces the descriptor (INCORPORATE replaces, like
  /// IMPORT replaces previously imported definitions).
  void Incorporate(ServiceDescriptor descriptor);

  bool HasService(std::string_view name) const;
  Result<const ServiceDescriptor*> GetService(std::string_view name) const;
  Status RemoveService(std::string_view name);
  size_t size() const { return services_.size(); }

 private:
  std::map<std::string, ServiceDescriptor> services_;
};

}  // namespace msql::mdbs

#endif  // MSQL_MDBS_AUXILIARY_DIRECTORY_H_
