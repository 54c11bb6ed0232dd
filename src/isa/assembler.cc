#include "isa/assembler.hh"

#include <cstdio>

#include "isa/bytes.hh"
#include "support/logging.hh"

namespace icp
{

Assembler::Assembler(const ArchInfo &arch, Addr start)
    : arch_(arch), start_(start)
{
    icp_assert(start % arch.instrAlign == 0,
               "assembler start 0x%llx misaligned",
               static_cast<unsigned long long>(start));
}

Assembler::Label
Assembler::newLabel()
{
    labels_.push_back(invalid_addr);
    return static_cast<Label>(labels_.size()) - 1;
}

void
Assembler::reserve(std::size_t items, std::size_t labels)
{
    items_.reserve(items);
    labels_.reserve(labels);
}

void
Assembler::bind(Label label)
{
    icp_assert(label >= 0 &&
               static_cast<std::size_t>(label) < labels_.size(),
               "bind: bad label %d", label);
    icp_assert(labels_[label] == invalid_addr,
               "bind: label %d already bound", label);
    labels_[label] = here();
}

void
Assembler::bindAt(Label label, Addr addr)
{
    icp_assert(label >= 0 &&
               static_cast<std::size_t>(label) < labels_.size(),
               "bindAt: bad label %d", label);
    icp_assert(labels_[label] == invalid_addr,
               "bindAt: label %d already bound", label);
    labels_[label] = addr;
}

void
Assembler::rebase(Addr new_start)
{
    icp_assert(!finalized_, "rebase after finalize");
    icp_assert(new_start % arch_.instrAlign == 0,
               "rebase target 0x%llx misaligned",
               static_cast<unsigned long long>(new_start));
    const std::int64_t delta =
        static_cast<std::int64_t>(new_start) -
        static_cast<std::int64_t>(start_);
    if (delta == 0)
        return;
    start_ = new_start;
    for (Addr &label : labels_) {
        if (label != invalid_addr) {
            label = static_cast<Addr>(
                static_cast<std::int64_t>(label) + delta);
        }
    }
}

unsigned
Assembler::itemLength(const Item &item) const
{
    switch (item.kind) {
      case Item::Kind::instr: {
        unsigned len = arch_.codec->encodedLength(item.in);
        icp_assert(len > 0, "unencodable opcode %s on %s",
                   opcodeName(item.in.op), arch_.name);
        return len;
      }
      case Item::Kind::dataDiff:
        return item.diffSize;
    }
    icp_panic("bad item kind");
}

void
Assembler::emit(const Instruction &in)
{
    icp_assert(!finalized_, "emit after finalize");
    Item item;
    item.in = in;
    item.offset = cursor_;
    item.length = itemLength(item);
    cursor_ += item.length;
    items_.push_back(std::move(item));
}

void
Assembler::emitToLabel(Instruction in, Label label)
{
    icp_assert(!finalized_, "emit after finalize");
    icp_assert(isDirectBranch(in.op) || in.op == Opcode::Lea ||
               in.op == Opcode::AdrPage,
               "emitToLabel: %s has no target", opcodeName(in.op));
    Item item;
    item.in = in;
    item.in.target = 0; // placeholder; lengths are target-independent
    item.targetLabel = label;
    item.fixup = Item::Fixup::target;
    item.offset = cursor_;
    item.length = itemLength(item);
    cursor_ += item.length;
    items_.push_back(std::move(item));
}

void
Assembler::emitMovImm64(Reg rd, std::uint64_t value)
{
    if (!arch_.fixedLength) {
        emit(makeMovImm(rd, static_cast<std::int64_t>(value)));
        return;
    }
    // Always 4 chunks so code size does not depend on the value.
    emit(makeMovZk(rd, static_cast<std::uint16_t>(value), 0, false));
    for (unsigned shift = 16; shift <= 48; shift += 16) {
        emit(makeMovZk(rd,
                       static_cast<std::uint16_t>(value >> shift),
                       static_cast<std::uint8_t>(shift), true));
    }
}

void
Assembler::emitMovLabel(Reg rd, Label label)
{
    icp_assert(!finalized_, "emit after finalize");
    auto addChunk = [&](std::uint8_t shift, bool keep) {
        Item item;
        item.in = makeMovZk(rd, 0, shift, keep);
        item.targetLabel = label;
        item.fixup = Item::Fixup::movChunk;
        item.offset = cursor_;
        item.length = itemLength(item);
        cursor_ += item.length;
        items_.push_back(std::move(item));
    };
    if (!arch_.fixedLength) {
        Item item;
        item.in = makeMovImm(rd, 0);
        item.targetLabel = label;
        item.fixup = Item::Fixup::movChunk;
        item.offset = cursor_;
        item.length = itemLength(item);
        cursor_ += item.length;
        items_.push_back(std::move(item));
        return;
    }
    addChunk(0, false);
    addChunk(16, true);
    addChunk(32, true);
    addChunk(48, true);
}

void
Assembler::emitAddisTocPair(Reg rd, Label label, Addr toc_base)
{
    icp_assert(!finalized_, "emit after finalize");
    icp_assert(arch_.hasToc, "emitAddisTocPair: no TOC on %s",
               arch_.name);
    Item hi;
    hi.in = makeAddisToc(rd, 0);
    hi.targetLabel = label;
    hi.fixup = Item::Fixup::tocHi;
    hi.tocBase = toc_base;
    hi.offset = cursor_;
    hi.length = itemLength(hi);
    cursor_ += hi.length;
    items_.push_back(std::move(hi));

    Item lo;
    lo.in = makeAddImm(rd, 0);
    lo.targetLabel = label;
    lo.fixup = Item::Fixup::tocLo;
    lo.tocBase = toc_base;
    lo.offset = cursor_;
    lo.length = itemLength(lo);
    cursor_ += lo.length;
    items_.push_back(std::move(lo));
}

void
Assembler::emitDataLabelDiff(Label target, Label base, unsigned size,
                             unsigned shift)
{
    icp_assert(!finalized_, "emit after finalize");
    icp_assert(size == 1 || size == 2 || size == 4 || size == 8,
               "bad diff size %u", size);
    Item item;
    item.kind = Item::Kind::dataDiff;
    item.diffA = target;
    item.diffB = base;
    item.diffSize = size;
    item.diffShift = shift;
    item.offset = cursor_;
    item.length = size;
    cursor_ += size;
    items_.push_back(std::move(item));
}

void
Assembler::alignTo(unsigned alignment)
{
    while ((start_ + cursor_) % alignment != 0)
        emit(makeNop());
}

Addr
Assembler::labelAddr(Label label) const
{
    icp_assert(label >= 0 &&
               static_cast<std::size_t>(label) < labels_.size(),
               "labelAddr: bad label");
    icp_assert(labels_[label] != invalid_addr,
               "labelAddr: label %d unbound", label);
    return labels_[label];
}

std::vector<std::uint8_t>
Assembler::finalize()
{
    std::string error;
    std::optional<std::vector<std::uint8_t>> out = finalize(error);
    icp_assert(out.has_value(), "%s", error.c_str());
    return std::move(*out);
}

std::optional<std::vector<std::uint8_t>>
Assembler::finalize(std::string &error)
{
    icp_assert(!finalized_, "finalize called twice");
    finalized_ = true;

    std::vector<std::uint8_t> out;
    out.reserve(cursor_);
    for (const auto &item : items_) {
        const Addr addr = start_ + item.offset;
        icp_assert(out.size() == item.offset, "assembler offset drift");
        switch (item.kind) {
          case Item::Kind::instr: {
            Instruction in = item.in;
            if (item.targetLabel >= 0) {
                const Addr t = labelAddr(item.targetLabel);
                switch (item.fixup) {
                  case Item::Fixup::target:
                    in.target = t;
                    break;
                  case Item::Fixup::movChunk:
                    in.imm = static_cast<std::int64_t>(
                        arch_.fixedLength
                            ? ((t >> in.movShift) & 0xffff)
                            : t);
                    break;
                  case Item::Fixup::tocHi: {
                    const std::int64_t off =
                        static_cast<std::int64_t>(t) -
                        static_cast<std::int64_t>(item.tocBase);
                    in.imm = (off + 0x8000) >> 16;
                    break;
                  }
                  case Item::Fixup::tocLo: {
                    const std::int64_t off =
                        static_cast<std::int64_t>(t) -
                        static_cast<std::int64_t>(item.tocBase);
                    in.imm = signExtend(
                        static_cast<std::uint64_t>(off), 16);
                    break;
                  }
                  case Item::Fixup::none:
                    icp_panic("label without fixup");
                }
            }
            if (!arch_.codec->encode(in, addr, out)) {
                char msg[160];
                std::snprintf(msg, sizeof(msg),
                              "cannot encode '%s' at 0x%llx on %s: "
                              "beyond its reach",
                              in.toString().c_str(),
                              static_cast<unsigned long long>(addr),
                              arch_.name);
                error = msg;
                return std::nullopt;
            }
            break;
          }
          case Item::Kind::dataDiff: {
            const std::int64_t diff =
                static_cast<std::int64_t>(labelAddr(item.diffA)) -
                static_cast<std::int64_t>(labelAddr(item.diffB));
            const std::int64_t value = diff >> item.diffShift;
            if (item.diffSize != 8 &&
                !fitsSigned(value, item.diffSize * 8)) {
                char msg[96];
                std::snprintf(msg, sizeof(msg),
                              "label difference %lld at 0x%llx does "
                              "not fit %u bytes",
                              static_cast<long long>(value),
                              static_cast<unsigned long long>(addr),
                              item.diffSize);
                error = msg;
                return std::nullopt;
            }
            for (unsigned i = 0; i < item.diffSize; ++i) {
                out.push_back(static_cast<std::uint8_t>(
                    static_cast<std::uint64_t>(value) >> (8 * i)));
            }
            break;
          }
        }
    }
    icp_assert(out.size() == cursor_, "assembler length drift");
    return out;
}

} // namespace icp
