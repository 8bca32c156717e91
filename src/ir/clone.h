/**
 * @file
 * Linking programs against a shared library by reference.
 *
 * A SharedLibrary is a finalized library module that is never changed
 * again, together with what linking needs precomputed: for every library
 * function, the library functions its body names and the functions it
 * takes the address of, and a body-less twin of it. One instance serves
 * every program of a process, from any thread.
 *
 * A program compiled against a library (see LibraryPrototype in
 * frontend/compiler.h) reserves the library's function ids
 * (Module::useLibrary()), shows the library's globals among its own and
 * names library functions and globals in its bodies directly; nothing of
 * the library is copied. linkLibrary() then shows the body of each
 * library function the program reaches and the twin of every other, so
 * the program sees exactly the functions a whole-program compile that
 * dropped the unreached bodies would have. linkCopy() is the one way to
 * move a program onto another stage of the same library — other bodies
 * of it, or the same sources run through an optimization pipeline, with
 * the same ids and global places: it copies the program's own code and
 * links the copy against the stage, leaving the program as it was.
 */

#ifndef MS_IR_CLONE_H
#define MS_IR_CLONE_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "ir/module.h"

namespace sulong
{

class SharedLibrary
{
  public:
    /** Take over @p module, finalized; it is never changed again. */
    explicit SharedLibrary(std::unique_ptr<Module> module);
    ~SharedLibrary();

    const Module &module() const { return *module_; }
    /** The function ids the library reserves in a program. */
    unsigned numFunctions() const
    {
        return static_cast<unsigned>(declarations_.size());
    }
    /** What a program that does not reach function @p id shows there: a
     *  body-less twin of a definition, else the library's declaration. */
    Function *declaration(unsigned id) const { return declarations_[id]; }
    /** The library functions the body of @p id names. */
    const std::vector<unsigned> &references(unsigned id) const
    {
        return references_[id];
    }
    /** The functions the body of @p id names other than as a callee. */
    const std::vector<unsigned> &addressTaken(unsigned id) const
    {
        return addressTaken_[id];
    }
    /** The place of @p global among the library's globals, or -1 when
     *  it is not the library's. */
    int globalIndex(const GlobalVariable *global) const;

  private:
    std::unique_ptr<Module> module_;
    std::vector<std::unique_ptr<Function>> twins_;
    std::vector<Function *> declarations_;
    std::vector<std::vector<unsigned>> references_;
    std::vector<std::vector<unsigned>> addressTaken_;
    std::unordered_map<const GlobalVariable *, int> globalIndex_;
};

/**
 * Show, in @p program (compiled against program.library()), the body of
 * every library function reachable from the program's own function
 * bodies or from any global's initializer; the others stay twins.
 */
void linkLibrary(Module &program);

/**
 * A copy of @p program, compiled against a library and linked, that
 * links @p stage, a stage of the same library, instead. The program's
 * own functions, globals and constants are copied, at the same ids and
 * places; every library function and global they name is @p stage's at
 * the same id or place; and linkLibrary() shows the bodies reached over
 * @p stage's own reference lists. The copy's types extend @p program's
 * (and keep them alive); it references nothing else of @p program,
 * which may be freed first. Throws InternalError if @p stage is not a
 * stage of @p program's library.
 */
std::unique_ptr<Module> linkCopy(const Module &program,
                                 const SharedLibrary &stage);

} // namespace sulong

#endif // MS_IR_CLONE_H
