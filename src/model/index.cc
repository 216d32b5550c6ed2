#include "model/index.h"

#include <sstream>

namespace i3 {

std::string IndexSizeInfo::ToString() const {
  std::ostringstream os;
  os << "SizeInfo{";
  for (size_t i = 0; i < components.size(); ++i) {
    if (i > 0) os << ", ";
    os << components[i].first << ": " << components[i].second << "B";
  }
  os << ", total: " << TotalBytes() << "B}";
  return os.str();
}

}  // namespace i3
