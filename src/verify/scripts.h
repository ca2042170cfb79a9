// Transaction scripts for the protocol model checker. A script is a list
// of DOM operations, each one NodeManager call on a role of the scenario
// document; Execution (scheduler.h) makes the calls, so the locks an
// operation takes are the node manager's own.

#ifndef XTC_VERIFY_SCRIPTS_H_
#define XTC_VERIFY_SCRIPTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xtc::verify {

/// One DOM operation; the comment names the call it makes. The read-only
/// kinds come first (IsReadOnlyOp).
enum class ScriptOpKind : uint8_t {
  kNavigate = 0,        // NodeManager::GetNode
  kNavigateFirstChild,  // NodeManager::GetFirstChild
  kReadContent,         // NodeManager::GetTextContent
  kReadChildren,        // NodeManager::GetChildNodes
  kDeclareUpdate,       // NodeManager::DeclareUpdateIntent
  kUpdateContent,       // NodeManager::UpdateText
  kRename,              // NodeManager::Rename
  kInsertChild,         // NodeManager::AppendSubtree (an empty element)
  kDeleteSubtree,       // NodeManager::DeleteSubtree
  kCommit,              // TransactionManager::Commit
  kAbort,               // TransactionManager::Abort
};

/// True for ops that write nothing — the schedule enumerator's
/// independence relation for sleep-set pruning.
inline bool IsReadOnlyOp(ScriptOpKind kind) {
  return kind <= ScriptOpKind::kReadChildren;
}

struct ScriptOp {
  ScriptOpKind kind;
  /// Index into the scenario document's roles (below); -1 for
  /// kCommit/kAbort.
  int node = -1;
};

/// One transaction's script. Scripts without a terminal kCommit/kAbort
/// are implicitly committed after their last op.
struct TxScriptSpec {
  std::string name;
  std::vector<ScriptOp> ops;
};

// Roles of the scenario document, which Execution builds for every
// replay:
//   bib                  kRoleRoot
//     topic              kRoleTopic
//       book             kRoleBookA
//         text           kRoleBookAText
//       book             kRoleBookB
//         text           kRoleBookBText
//         note           kRoleBookBNote (an empty element)
inline constexpr int kRoleRoot = 0;
inline constexpr int kRoleTopic = 1;
inline constexpr int kRoleBookA = 2;
inline constexpr int kRoleBookAText = 3;
inline constexpr int kRoleBookB = 4;
inline constexpr int kRoleBookBText = 5;
inline constexpr int kRoleBookBNote = 6;

}  // namespace xtc::verify

#endif  // XTC_VERIFY_SCRIPTS_H_
